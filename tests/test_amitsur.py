from __future__ import annotations

import random
from collections import Counter

import pytest

from cechcover.amitsur import amitsur_homology, build_amitsur
from cechcover.cli import _dispatch
from cechcover.coverings import Covering
from cechcover.errors import DimensionCapError, NotAComplexError
from cechcover.linalg import GF, QQ, kernel_basis, rank
from cechcover.oracles import (
    TensorTower, b_bimodule, build_coring, ideal_sum, multiply, patch, quotient, random_covering,
    scalar_mul, scale, tensor_over_A, to_lists, unit_component, validate_bimodule, zero_bimodule,
)
from cechcover.problem import Problem

from instances import make_e1, make_three_lines


def pair_block_formula(c):
    """Independent oracle for dim B(x)_A B: sum of dim A/(I_i + I_j)."""
    total = 0
    for i in range(c.n_patches):
        for j in range(c.n_patches):
            s = ideal_sum(c.ideals[i], c.ideals[j])
            q, _ = quotient(c.algebra, s)
            total += q.dim
    return total


# -- bimodules and tensor products ------------------------------------------------

def test_patch_sum_bimodule_axioms(e1, e4):
    validate_bimodule(b_bimodule(e1))
    validate_bimodule(b_bimodule(e4))


def test_tensor_square_dims(e1, e4):
    t1, _ = tensor_over_A(b_bimodule(e1), b_bimodule(e1), check=True)
    assert t1.dim == 6 == pair_block_formula(e1)
    t4, _ = tensor_over_A(b_bimodule(e4), b_bimodule(e4), check=True)
    assert t4.dim == 5 == pair_block_formula(e4)


def test_tensor_square_block_dims(e1):
    t, _ = tensor_over_A(b_bimodule(e1), b_bimodule(e1))
    by_word = {b.word: b.dim for b in t.blocks}
    assert by_word == {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 2}


def test_tensor_with_zero_bimodule(e1):
    z = zero_bimodule(e1.algebra)
    t, _ = tensor_over_A(b_bimodule(e1), z)
    assert t.dim == 0


def test_tensor_projection_is_surjective_with_section(e1):
    tower = TensorTower(e1)
    q = tower.proj(2)
    s = tower.sect(2)
    assert to_lists(q.mul(s)) == [[1 if i == j else 0 for j in range(q.rows)]
                                   for i in range(q.rows)]


def test_block_formula_on_random_coverings():
    rng = random.Random(41)
    for field in (QQ, GF(5)):
        for _ in range(8):
            c = random_covering(rng, field, max_dim=5, max_patches=3)
            t, _ = tensor_over_A(b_bimodule(c), b_bimodule(c))
            assert t.dim == pair_block_formula(c)


# -- the tower in check mode --------------------------------------------------------

def test_tower_structure_maps_match_raw_maps(e1):
    # check mode asserts map . flat == flat . raw_map for every insertion
    # and merge; building through T_4 exercises all recursion branches.
    tower = TensorTower(e1, check=True)
    assert tower.space(4).dim == 18
    for k in range(3):
        tower.insert_unit(2, k)
        tower.mult_adjacent(3, k % 2)
    tower.insert_unit(3, 1)


def test_decompose_round_trip(e1):
    tower = TensorTower(e1)
    rng = random.Random(43)
    t2 = tower.space(2)
    coords = tuple(QQ.coerce(rng.randint(-3, 3)) for _ in range(t2.dim))
    terms = tower.decompose(2, coords)
    rebuilt = [QQ.zero] * t2.dim
    for coeff, factors in terms:
        vecs = []
        for patch, local in factors:
            block = tower.base.block_by_word((patch,))
            v = [QQ.zero] * block.dim
            v[local] = QQ.one
            vecs.append((patch, tuple(v)))
        for i, x in enumerate(tower.pure_tensor_coords(vecs)):
            rebuilt[i] = QQ.add(rebuilt[i], scalar_mul(QQ, coeff, x))
    assert tuple(rebuilt) == coords


# -- the Amitsur complex ---------------------------------------------------------------

def test_e1_degree_dims(e1):
    cx = build_amitsur(e1, 2)
    assert cx.degree_dims() == (4, 6, 10)


def test_differential_zero_exactly_on_image_of_pi(e1):
    cx = build_amitsur(e1, 1)
    d0 = cx.differentials[0]
    pi = e1.pi
    assert d0.mul(pi).is_zero()
    assert kernel_basis(d0).dim == kernel_basis(e1.tau).dim == 3


def test_kernel_of_d0_equals_kernel_of_tau_incomplete(three_lines):
    cx = build_amitsur(three_lines, 1)
    assert kernel_basis(cx.differentials[0]).dim == kernel_basis(three_lines.tau).dim == 4
    # augmented homology sees the incompleteness in degree 0
    assert amitsur_homology(cx, augmented=True)[0] == 1


def test_d_squared_zero(e1, e4):
    for c in (e1, e4):
        cx = build_amitsur(c, 3)
        for n in range(len(cx.differentials) - 1):
            assert cx.differentials[n + 1].mul(cx.differentials[n]).is_zero()
        # the tower in check mode checks every unit insertion against its raw map
        tower = TensorTower(c, check=True)
        for n in range(3):
            tower.differential(n)


def test_complete_coverings_have_acyclic_augmented_complex(e1, e4):
    for c in (e1, e4):
        cx = build_amitsur(c, 3)
        assert amitsur_homology(cx, augmented=True) == [0, 0, 0]
        unaug = amitsur_homology(cx, augmented=False)
        assert unaug[0] == c.algebra.dim
        assert unaug[1:] == [0, 0]


def test_homology_over_f5():
    cx = build_amitsur(make_e1(GF(5)), 2)
    assert amitsur_homology(cx, augmented=True) == [0, 0]


def test_dimension_cap_names_the_degree(e1):
    with pytest.raises(DimensionCapError) as err:
        build_amitsur(e1, 3, cap=10)
    assert err.value.degree >= 2
    assert err.value.estimated > err.value.cap == 10


# -- the Sweedler coring -----------------------------------------------------------------

def test_coring_counit_on_e_elements(e1):
    tower = TensorTower(e1)
    coring = build_coring(e1, tower=tower)
    for i in (1, 2):
        for j in (1, 2):
            eps = coring.counit.apply(coring.elements[(i, j)])
            if i == j:
                assert eps == unit_component(e1, i)
            else:
                assert all(x == QQ.zero for x in eps)


def test_coring_coproduct_matrix_coring_identity(e1):
    # cop(e_ij) = sum_k e_ik (x)_B e_kj, i.e. pi_i(1) (x) pi_k(1) (x) pi_j(1)
    tower = TensorTower(e1)
    coring = build_coring(e1, tower=tower)
    n = e1.n_patches
    units = {i: patch(e1, i)[0].unit for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lhs = coring.coproduct.apply(coring.elements[(i, j)])
            rhs = [QQ.zero] * tower.space(3).dim
            for k in range(1, n + 1):
                term = tower.pure_tensor_coords(
                    [(i, units[i]), (k, units[k]), (j, units[j])])
                rhs = [QQ.add(a, b) for a, b in zip(rhs, term)]
            assert list(lhs) == rhs


def test_coring_laws_for_e4(e4):
    # counit laws and coassociativity are asserted inside the builder
    build_coring(e4, check=True)


def test_counit_is_multiplication(e1):
    tower = TensorTower(e1)
    coring = build_coring(e1, tower=tower)
    a1 = patch(e1, 1)[0]
    x = tower.pure_tensor_coords([(1, (2, 3)), (1, (1, 1))])
    eps = coring.counit.apply(x)
    prod = multiply(a1, (2, 3), (1, 1))
    assert eps[:2] == prod and all(v == QQ.zero for v in eps[2:])


def test_random_covering_d_squared(three_lines):
    # incomplete coverings still give complexes
    cx = build_amitsur(three_lines, 2)
    assert cx.differentials[1].mul(cx.differentials[0]).is_zero()
    rng = random.Random(47)
    for _ in range(4):
        c = random_covering(rng, QQ, max_dim=5, max_patches=3)
        cx = build_amitsur(c, 2)
        assert cx.differentials[1].mul(cx.differentials[0]).is_zero()


def test_amitsur_homology_uses_rank_consistently(e1):
    cx = build_amitsur(e1, 2)
    d0, d1 = cx.differentials
    assert rank(d0) == 1  # B/ker d0: dim 4 - 3
    assert amitsur_homology(cx, augmented=False)[1] == (cx.spaces[1].dim - rank(d1)) - rank(d0)


# -- a differential that is not a complex ------------------------------------------

def _e1_with_one_wrong_block(s: tuple, t: tuple):
    """E1 whose projection A/I_S -> A/I_T is doubled after construction, so
    pi and tau are right and only the Amitsur differentials see it."""
    c = make_e1()
    wrong = (c.ideal_sum_space(s), c.ideal_sum_space(t))

    def projection(j1, j2):
        m = Covering.projection(c, j1, j2)
        return scale(m, 2) if (j1, j2) == wrong else m

    c.projection = projection
    return c


@pytest.mark.parametrize("s, t, n_max, degree, message", (
    ((1,), (1, 2), 1, -1, "d_0 . pi != 0"),
    ((1, 2), (1, 2), 3, 1, "d_2 . d_1 != 0"),
))
def test_a_wrong_block_is_not_a_complex(s, t, n_max, degree, message):
    with pytest.raises(NotAComplexError) as err:
        build_amitsur(_e1_with_one_wrong_block(s, t), n_max)
    assert err.value.degree == degree
    assert str(err.value) == message


def test_verify_reports_the_d_squared_witness():
    c = _e1_with_one_wrong_block((1, 2), (1, 2))
    results, checks, code = _dispatch("verify", Problem(c.field, c.algebra, {}, c, None,
                                                        n_max=3))
    assert code == 1
    assert checks["d_squared_zero"] is False
    assert results["d_squared_witness"] == "d_2 . d_1 != 0"
    assert "degree_dims" not in results
    # the Cech side does not use the doubled block; no chain map without the complex
    assert checks["functor_validation"] is True and "chain_map" not in checks


def test_each_candidate_word_looks_up_its_ideal_sum_once(monkeypatch):
    # the covering keeps I_set(w) per word: a candidate word's sum is found
    # once, its dim read once per build, and a second build finds no sum
    c = make_three_lines()
    found, dims = Counter(), []

    class PerWord(dict):
        def __setitem__(self, w, space):
            found[w] += 1
            super().__setitem__(w, space)

    word_dim = Covering.word_dim

    def counted(self, w):
        dims.append(w)
        return word_dim(self, w)

    c._sum_spaces = PerWord(c._sum_spaces)
    monkeypatch.setattr(Covering, "word_dim", counted)
    n_max, patches = 4, range(1, c.n_patches + 1)
    cx = build_amitsur(c, n_max)
    # the words of length one, then every extension of a kept word by one letter
    candidates = [(i,) for i in patches]
    candidates += [w + (i,) for space in cx.spaces[:-1] for w in space.words for i in patches]
    assert sorted(dims) == sorted(candidates)
    assert set(candidates) <= set(c._sum_spaces)
    # beyond the candidates the cache holds only index sets, each found once
    assert all(list(w) == sorted(set(w)) for w in set(c._sum_spaces) - set(candidates))
    assert set(found.values()) == {1}
    before = dict(found)
    build_amitsur(c, n_max)
    assert found == before
    assert len(dims) == 2 * len(candidates)
