"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here is exact arithmetic, so there are no
tolerances to tune; a failure is a real failure.
"""

from __future__ import annotations

import random
from itertools import combinations

from cechcover.amitsur import amitsur_homology, build_amitsur
from cechcover.cech import (
    build_cech, cech_cohomology, constant_functor, patch_maps, verify_chain_map,
)
from cechcover.coverings import completeness_check
from cechcover.linalg import GF, QQ, rank
from cechcover.nerve import functor_from_cover, nerve_cohomology
from cechcover.oracles import (
    TensorTower, b_bimodule, default_phi_choice, ideal_sum, insert_index, lattice_functor,
    matrix_algebra, multiply, patch, phi_sum, quotient, random_cover_description, random_covering,
    split_commutative, tensor_over_A,
)

from instances import make_e1, make_e4

SEED = 20260810


def report(line: str) -> None:
    print(line)


# -- 1: constant-functor cohomology ------------------------------------------------

def test_criterion_1_constant_functor_pattern():
    k = split_commutative(QQ, 1)
    m2 = matrix_algebra(QQ, 2)
    for n in range(2, 6):
        dims_k = cech_cohomology(build_cech(constant_functor(n, k)))
        assert dims_k == [1] + [0] * (n - 1), f"N={n}, R=k: {dims_k}"
        dims_m = cech_cohomology(build_cech(constant_functor(n, m2)))
        assert dims_m == [4] + [0] * (n - 1), f"N={n}, R=M2: {dims_m}"
    report("ACCEPTANCE 1 constant functor (N=2..5, R=k and M_2): PASS")


# -- 2: completeness implies Amitsur acyclicity -------------------------------------

def test_criterion_2_complete_coverings_are_acyclic():
    for name, cov in (("E1", make_e1()), ("E4", make_e4())):
        assert completeness_check(cov).complete, f"{name} should be complete"
        cx = build_amitsur(cov, 3)
        hom = amitsur_homology(cx, augmented=True)
        assert hom == [0, 0, 0], f"{name} augmented homology {hom}"
    report("ACCEPTANCE 2 completeness => Amitsur acyclicity (E1, E4, n_max=3): PASS")


# -- 3: phi is a chain map -----------------------------------------------------------

def test_criterion_3_chain_map_and_relation_killing():
    for name, cov in (("E1", make_e1()), ("E4", make_e4())):
        # the covering is its own default ringed functor
        rep = verify_chain_map(build_amitsur(cov, 2), build_cech(cov), patch_maps(cov, cov))
        assert rep.passed, f"{name}: {rep.as_dict()}"
        assert [sq.degree for sq in rep.squares] == [1, 2]
        assert all(ch.ok for ch in rep.well_defined)

    # explicit balancing elements (y . pi_i(a)) (x) y' - y (x) (pi_j(a) . y')
    cov = make_e1()
    functor = lattice_functor(cov)
    choice = default_phi_choice(functor, cov)
    a1, pi1 = patch(cov, 1)
    a2, pi2 = patch(cov, 2)
    rng = random.Random(SEED)
    for _ in range(25):
        y = tuple(QQ.coerce(rng.randint(-4, 4)) for _ in range(a1.dim))
        yp = tuple(QQ.coerce(rng.randint(-4, 4)) for _ in range(a2.dim))
        a = tuple(QQ.coerce(rng.randint(-4, 4)) for _ in range(cov.algebra.dim))
        el = phi_sum(functor, choice, [
            (1, [(1, multiply(a1, y, pi1.matrix.apply(a))), (2, yp)]),
            (-1, [(1, y), (2, multiply(a2, pi2.matrix.apply(a), yp))]),
        ])
        assert all(x == QQ.zero for x in el.coords)
    report("ACCEPTANCE 3 chain map d'.phi = phi.d (E1, E4, degrees 1..2) "
           "and phi kills balancing relations: PASS")


# -- 4: classical recovery -------------------------------------------------------------

def test_criterion_4_cech_equals_nerve_cohomology():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(25):
        cd = random_cover_description(rng, max_patches=6)
        nerve_dims = nerve_cohomology(cd)
        cech_dims = cech_cohomology(build_cech(functor_from_cover(cd)))
        assert cech_dims == nerve_dims, f"{sorted(cd.nonempty_overlaps)}: {cech_dims} vs {nerve_dims}"
        checked += 1
    from cechcover.nerve import CoverDescription
    circle = CoverDescription(3, frozenset({(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}), QQ)
    assert nerve_cohomology(circle) == [1, 1]
    assert cech_cohomology(build_cech(functor_from_cover(circle))) == [1, 1]
    disjoint = CoverDescription(2, frozenset({(1,), (2,)}), QQ)
    assert nerve_cohomology(disjoint) == [2]
    assert cech_cohomology(build_cech(functor_from_cover(disjoint))) == [2]
    checked += 2
    report(f"ACCEPTANCE 4 classical recovery on {checked} covers "
           "(incl. circle (1,1) and disjoint pair (2)): PASS")


# -- 5: property suites ------------------------------------------------------------------

def pair_block_formula(cov) -> int:
    total = 0
    for i in range(cov.n_patches):
        for j in range(cov.n_patches):
            q, _ = quotient(cov.algebra, ideal_sum(cov.ideals[i], cov.ideals[j]))
            total += q.dim
    return total


def test_criterion_5_property_suites():
    # two-path sign cancellation, exhaustively for N <= 6
    pairs = 0
    for n_patches in range(2, 7):
        universe = range(1, n_patches + 1)
        for size in range(n_patches - 1):
            for zeta in combinations(universe, size):
                rest = [i for i in universe if i not in zeta]
                for a, b in combinations(rest, 2):
                    pa, za = insert_index(zeta, a)
                    pb, _ = insert_index(za, b)
                    qb, zb = insert_index(zeta, b)
                    qa, _ = insert_index(zb, a)
                    assert (-1) ** (pa + pb) + (-1) ** (qb + qa) == 0
                    pairs += 1
    assert pairs > 0

    instances = [make_e1(), make_e4(), make_e1(GF(5)), make_e4(GF(5))]
    rng = random.Random(SEED)
    for field in (QQ, GF(5)):
        for _ in range(26):
            instances.append(random_covering(rng, field, max_dim=6, max_patches=3))
    random_count = len(instances) - 4
    assert random_count >= 50

    for cov in instances:
        tower = TensorTower(cov)
        cx = build_amitsur(cov, 2)
        d0, d1 = cx.differentials
        assert d1.mul(d0).is_zero()
        assert d0.mul(cx.covering.pi).is_zero()

        t2, _ = tensor_over_A(b_bimodule(cov), b_bimodule(cov))
        assert t2.dim == pair_block_formula(cov)
        assert t2.dim == tower.space(2).dim == cx.spaces[1].dim

        functor = lattice_functor(cov)  # functor validation runs inside
        ccx = build_cech(functor)
        for k in range(len(ccx.differentials) - 1):
            assert ccx.differentials[k + 1].mul(ccx.differentials[k]).is_zero()

    report(f"ACCEPTANCE 5 property suites on {random_count} random coverings "
           f"(Q and F_5) plus E1/E4; {pairs} sign-cancellation pairs: PASS")


# -- 6: E1 end-to-end numbers ---------------------------------------------------------------

def test_criterion_6_e1_end_to_end():
    cov = make_e1()
    assert sum(cov.patch_dims()) == 4  # dim B
    t2, _ = tensor_over_A(b_bimodule(cov), b_bimodule(cov))
    assert t2.dim == 6  # dim B (x)_A B
    assert rank(cov.tau) == 1
    assert completeness_check(cov).complete
    assert cech_cohomology(build_cech(cov)) == [3, 0]
    report("ACCEPTANCE 6 E1 end-to-end (dim B=4, dim B(x)B=6, tau rank 1, "
           "complete, Cech [3,0]): PASS")
