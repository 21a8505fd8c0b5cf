"""The closed-form Amitsur complex and chain-map check against the literal
constructions they replace.

The balanced tensor tower builds B^((x)_A n) from the definition, and the
raw route checks phi on the full k-tensor space k^(B^n): phi must kill the
kernel of the flattening, and d'.phi = phi.d must hold on every pure basis
tensor.  Both are kept here as oracles.
"""

from __future__ import annotations

import random

from cechcover.algebras import AlgebraHom, ideal_closure
from cechcover.amitsur import amitsur_homology, build_amitsur
from cechcover.cech import PosetFunctor, build_cech, patch_maps, verify_chain_map
from cechcover.coverings import Covering
from cechcover.linalg import GF, QQ, kernel_basis, rank
from cechcover.oracles import (
    TensorTower, default_phi_choice, from_rows, lattice_functor, phi_raw_matrix, random_covering,
    split_commutative, transpose,
)

from instances import make_e1, make_e4, make_three_lines

RAW_LIMIT = 1500  # largest raw space (dim B)^(n+1) the raw route walks


def tower_oracle(c, n_max):
    """Degree dims, differential ranks and both homologies from the tower."""
    tower = TensorTower(c, cap=10 ** 9)
    dims = [tower.space(n + 1).dim for n in range(n_max + 1)]
    ranks = [rank(tower.differential(n)) for n in range(n_max)]
    pi_rank = rank(c.pi)
    homology = {}
    for augmented in (True, False):
        homology[augmented] = [
            dims[n] - ranks[n] - (ranks[n - 1] if n else pi_rank if augmented else 0)
            for n in range(n_max)]
    return dims, ranks, homology


def assert_matches_tower(c, n_max):
    cx = build_amitsur(c, n_max)
    dims, ranks, homology = tower_oracle(c, n_max)
    assert list(cx.degree_dims()) == dims
    assert [s.dim for s in cx.spaces] == dims
    assert [cx.rank(n) for n in range(len(cx.differentials))] == ranks
    assert amitsur_homology(cx, augmented=True) == homology[True]
    assert amitsur_homology(cx, augmented=False) == homology[False]


def raw_chain_map(f, choice, c, n_max):
    """The chain-map verdicts (well_defined oks, square oks) on k^(B^n)."""
    t = TensorTower(c, cap=10 ** 9)
    cx = build_cech(f)
    raw_phi = {n: phi_raw_matrix(f, choice, t, n) for n in range(1, n_max + 2)}
    well = []
    for n in range(1, n_max + 2):
        ker = kernel_basis(t.flat(n))
        well.append(all(not any(raw_phi[n].apply(v)) for v in ker.basis.entries))
    squares = [cx.differential(n).mul(raw_phi[n]) == raw_phi[n + 1].mul(t.raw_differential(n - 1))
               for n in range(1, n_max + 1)]
    return well, squares


def assert_chain_map_matches_raw(f, c, n_max):
    report = verify_chain_map(build_amitsur(c, n_max), build_cech(f), patch_maps(f, c))
    well, squares = raw_chain_map(f, default_phi_choice(f, c), c, n_max)
    assert [ch.degree for ch in report.well_defined] == list(range(1, n_max + 2))
    assert [ch.degree for ch in report.squares] == list(range(1, n_max + 1))
    assert [ch.ok for ch in report.well_defined] == well
    for n, ch in enumerate(report.squares, start=1):
        if well[n - 1] and well[n]:
            assert ch.ok == squares[n - 1], (n, report.as_dict())
    assert report.passed == (all(well) and all(squares))
    return report


def raw_size(c, n_max):
    return sum(c.patch_dims()) ** (n_max + 1)


# -- the complex ----------------------------------------------------------------------

def test_closed_form_matches_tower_on_worked_instances():
    for make in (make_e1, make_e4, make_three_lines):
        assert_matches_tower(make(), 4)
    assert_matches_tower(make_three_lines(GF(5)), 4)


def test_closed_form_matches_tower_on_random_coverings():
    rng = random.Random(20261018)
    count = 0
    for field in (QQ, GF(2), GF(5)):
        for k in range(36):
            c = random_covering(rng, field, max_dim=4, max_patches=3)
            assert_matches_tower(c, 2 + k % 2)
            count += 1
    assert count >= 100


def test_block_layout_is_lexicographic_and_drops_zero_blocks(e4):
    # E4's pair quotient is zero, so only the constant words carry blocks
    cx = build_amitsur(e4, 2)
    assert [s.words for s in cx.spaces] == [((1,), (2,)), ((1, 1), (2, 2)),
                                            ((1, 1, 1), (2, 2, 2))]
    assert [s.dims for s in cx.spaces] == [(1, 4)] * 3
    assert build_amitsur(make_e1(), 1).spaces[1].words == ((1, 1), (1, 2), (2, 1), (2, 2))


# -- the chain map ----------------------------------------------------------------------

def test_chain_map_matches_raw_route_on_ringed_functors():
    for c, n_max in ((make_e1(), 3), (make_e4(), 3), (make_three_lines(), 2)):
        assert raw_size(c, n_max) <= RAW_LIMIT
        assert assert_chain_map_matches_raw(lattice_functor(c), c, n_max).passed
    rng = random.Random(20261019)
    checked = 0
    for field in (QQ, GF(2), GF(5)):
        for k in range(8):
            c = random_covering(rng, field, max_dim=4, max_patches=3)
            n_max = 2 + k % 2
            if raw_size(c, n_max) > RAW_LIMIT:
                n_max = 2
            if raw_size(c, n_max) > RAW_LIMIT:
                continue
            report = assert_chain_map_matches_raw(lattice_functor(c), c, n_max)
            assert report.passed
            checked += 1
    assert checked >= 16


def twisted_functor(c, rng):
    """The default ringed functor of a covering of k^m, with the ring of each
    tuple relabelled by a permutation of its idempotents: every square still
    commutes, but the patch homs into R(zeta) may disagree."""
    f = lattice_functor(c)
    perms = {}
    for zeta, ring in f.rings.items():
        order = list(range(ring.dim))
        if rng.random() < 0.6:
            rng.shuffle(order)
        perms[zeta] = from_rows(
            c.field, [[1 if order[r] == col else 0 for col in range(ring.dim)]
                      for r in range(ring.dim)])
    steps = {}
    for (zeta, eta), hom in f.steps.items():
        inverse = transpose(perms[zeta])
        steps[(zeta, eta)] = AlgebraHom(hom.domain, hom.codomain,
                                        perms[eta].mul(hom.matrix).mul(inverse))
    return PosetFunctor(f.n_patches, f.rings, steps)


def test_chain_map_matches_raw_route_on_twisted_functors():
    rng = random.Random(20261020)
    verdicts = set()
    for k in range(20):
        m = rng.randint(1, 3)
        a = split_commutative(QQ, m)
        n_patches = rng.randint(1, 3)
        ideals = [ideal_closure(a, [tuple(1 if j == x else 0 for j in range(m))
                                    for x in range(m) if rng.random() < 0.3])
                  for _ in range(n_patches)]
        c = Covering(a, ideals)
        n_max = 2 if raw_size(c, 3) > RAW_LIMIT else 2 + k % 2
        if raw_size(c, n_max) > RAW_LIMIT:
            continue
        report = assert_chain_map_matches_raw(twisted_functor(c, rng), c, n_max)
        verdicts.add(report.passed)
    assert verdicts == {True, False}
