from __future__ import annotations

import random
from functools import partial
from itertools import combinations

import pytest

from cechcover.algebras import AlgebraHom, Ideal, ideal_closure
from cechcover.amitsur import build_amitsur
from cechcover.cech import (
    PosetFunctor, all_tuples, build_cech, cech_cohomology, constant_functor, patch_maps,
    validate_functor, verify_chain_map,
)
from cechcover.coverings import Covering
from cechcover.errors import CechcoverError, DimensionMismatchError, StructureError
from cechcover.linalg import GF, QQ, Matrix, Subspace, kernel_basis, rank, subspace_sum
from cechcover.nerve import CoverDescription, functor_from_cover
from cechcover.oracles import (
    CechElement, RingedStructure, TensorTower, default_phi_choice, direct_sum, from_rows,
    functor_from_ringed_covering, insert_index, lattice_functor, matrix_algebra, multiply, patch,
    phi, phi_matrix, phi_on_pure, phi_raw_matrix, phi_sum, projection_hom, quotient,
    quotient_of, quotient_section, random_covering, ring, split_commutative, square_zero,
    to_lists, truncated_polynomial, upper_triangular,
)

from instances import make_e1, make_e4, make_three_lines


# -- index combinatorics -----------------------------------------------------------

def test_insert_index_positions():
    assert insert_index((2,), 1) == (0, (1, 2))
    assert insert_index((1,), 2) == (1, (1, 2))
    assert insert_index((1, 3), 2) == (1, (1, 2, 3))


def test_two_path_sign_cancellation_exhaustive():
    # for every zeta inside theta with two extra indices, the two insertion
    # orders carry opposite total signs
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


# -- constant functors ---------------------------------------------------------------

def line():
    return split_commutative(QQ, 1)


def test_constant_functor_coboundary_signs():
    # S^1 -> S^2 for N = 2: x = (a, b) goes to b - a on the pair block
    cx = build_cech(constant_functor(2, line()))
    assert to_lists(cx.differentials[1]) == [[-1, 1]]


def test_constant_functor_point_pattern():
    for n in (2, 3, 4, 5, 10):
        dims = cech_cohomology(build_cech(constant_functor(n, line())))
        assert dims == [1] + [0] * (n - 1)


def test_constant_functor_matrix_ring_scales():
    m2 = matrix_algebra(QQ, 2)
    for n in (2, 3):
        dims = cech_cohomology(build_cech(constant_functor(n, m2)))
        assert dims == [4] + [0] * (n - 1)


def test_single_patch_functor():
    a = split_commutative(QQ, 3)
    c = Covering(a, [ideal_closure(a, [])])
    f = lattice_functor(c)
    assert cech_cohomology(build_cech(f)) == [3]


def test_constant_functor_single_ring():
    assert cech_cohomology(build_cech(constant_functor(1, line()))) == [1]


# -- ringed coverings ------------------------------------------------------------------

def test_e1_default_ringed_dims(e1):
    f = lattice_functor(e1)
    assert f.ring(()).dim == 3
    assert f.ring((1,)).dim == 2
    assert f.ring((2,)).dim == 2
    assert f.ring((1, 2)).dim == 1


def test_default_ringed_functor_reuses_the_covering_quotients(e1):
    f = lattice_functor(e1)
    for i in range(1, e1.n_patches + 1):
        assert f.ring((i,)) is patch(e1, i)[0]
    for (i, j) in combinations(range(1, e1.n_patches + 1), 2):
        assert f.ring((i, j)) is quotient_of(e1, e1.ideal_sum_space((i, j)))[0]
        assert e1.ideal_sum_space((i, j)) == subspace_sum(e1.ideals[i - 1].space,
                                                          e1.ideals[j - 1].space)


def test_e1_dprime_is_tau_up_to_sign(e1):
    f = lattice_functor(e1)
    cx = build_cech(f)
    assert cx.differentials[1] == e1.tau.neg()
    assert rank(cx.differentials[1]) == 1


def test_e1_cech_cohomology(e1):
    assert cech_cohomology(build_cech(lattice_functor(e1))) == [3, 0]


def test_e4_ringed_dims_and_cohomology(e4):
    f = lattice_functor(e4)
    assert f.ring((1,)).dim == 1
    assert f.ring((2,)).dim == 4
    assert f.ring((1, 2)).dim == 0
    assert cech_cohomology(build_cech(f)) == [5]


def test_functor_validation_catches_bad_square():
    ring = split_commutative(QQ, 2)
    f = constant_functor(2, ring)
    swap = AlgebraHom(ring, ring, from_rows(QQ, [[0, 1], [1, 0]]))
    f.steps[((1,), (1, 2))] = swap
    with pytest.raises(StructureError) as err:
        validate_functor(f)
    assert err.value.witness[0] == "square"


def _constant_parts(n: int):
    """The rings and steps of the constant functor k^2 on n patches, to
    break before a PosetFunctor is constructed from them."""
    f = constant_functor(n, split_commutative(QQ, 2))
    return dict(f.rings), dict(f.steps)


def _drop_ring(rings: dict, steps: dict) -> None:
    del rings[(1, 2)]


def _drop_step(rings: dict, steps: dict) -> None:
    del steps[((1,), (1, 2))]


def _swap_step(rings: dict, steps: dict) -> None:
    ring = rings[(1,)]
    steps[((1,), (1, 2))] = AlgebraHom(ring, ring, from_rows(QQ, [[0, 1], [1, 0]]))


def _retarget_step(rings: dict, steps: dict) -> None:
    # the projection k^2 -> k onto the first factor: a homomorphism, but
    # its codomain is not the ring on (1, 2)
    ring = rings[(1,)]
    steps[((1,), (1, 2))] = AlgebraHom(ring, split_commutative(QQ, 1),
                                       from_rows(QQ, [[1, 0]]))


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("break_it, kind", (
    (_drop_ring, "missing"),
    (_drop_step, "missing-step"),
    (_retarget_step, "endpoints"),
    (_swap_step, "square"),
))
def test_an_invalid_functor_cannot_be_constructed(n, break_it, kind):
    rings, steps = _constant_parts(n)
    break_it(rings, steps)
    with pytest.raises(StructureError) as err:
        PosetFunctor(n, rings, steps)
    assert err.value.witness[0] == kind


def test_the_first_broken_step_is_the_witness():
    """Steps are checked in ``one_step_inclusions`` order: length of the
    source tuple, then the tuple, then the inserted index."""
    ring, point = split_commutative(QQ, 2), split_commutative(QQ, 1)
    wrong = AlgebraHom(ring, point, from_rows(QQ, [[1, 0]]))
    for missing, retargeted, witness in (
            (((2,), (2, 3)), ((1,), (1, 2)), ("endpoints", (1,), (1, 2))),
            (((1,), (1, 3)), ((2,), (1, 2)), ("missing-step", (1,), (1, 3))),
            (((1, 2), (1, 2, 3)), ((), (3,)), ("endpoints", (), (3,)))):
        rings, steps = _constant_parts(3)
        del steps[missing]
        steps[retargeted] = wrong
        with pytest.raises(StructureError) as err:
            PosetFunctor(3, rings, steps)
        assert err.value.witness == witness


def _cover_functor_on_one_edge() -> PosetFunctor:
    """k on (), the 4 patches and the overlap (1, 2); the zero ring elsewhere."""
    return functor_from_cover(CoverDescription(4, frozenset({(1,), (2,), (3,), (4,), (1, 2)}), QQ))


def test_a_cover_functor_complex_holds_only_its_nerve():
    f = _cover_functor_on_one_edge()
    assert [space.words for space in f.cech.spaces] == [
        ((),), ((1,), (2,), (3,), (4,)), ((1, 2),), (), ()]
    assert cech_cohomology(f.cech) == [3, 0]


@pytest.mark.parametrize("broken, witness", (
    ("drop", ("missing-step", (1, 3), (1, 3, 4))),
    ("retarget", ("endpoints", (2, 4), (1, 2, 4))),
    ("both", ("missing-step", (1, 3), (1, 3, 4))),
))
def test_steps_between_zero_rings_are_still_checked(broken, witness):
    # the complex reads no step between two zero rings, but validation
    # still checks every step, in one_step_inclusions order
    f = _cover_functor_on_one_edge()
    line, zero = f.ring((1,)), f.ring((2, 4))
    steps = dict(f.steps)
    if broken != "retarget":
        del steps[((1, 3), (1, 3, 4))]
    if broken != "drop":
        steps[((2, 4), (1, 2, 4))] = AlgebraHom(line, zero, Matrix(QQ, 0, 1, ()))
    with pytest.raises(StructureError) as err:
        PosetFunctor(4, f.rings, steps)
    assert err.value.witness == witness


def test_custom_ringed_structure_naturality(e1):
    # Phi(J) = A/(J + I0) with I0 = <e2>: a ringed structure that collapses
    # the shared coordinate.  Naturality squares still commute.
    base = e1.algebra
    extra = ideal_closure(base, [(0, 1, 0)]).space

    def fat(j: Subspace) -> Subspace:
        return subspace_sum(j, extra)

    def hom_from_quotient(j):
        small, _ = quotient(base, Ideal(base, j))
        big, qb = quotient(base, Ideal(base, fat(j)))
        return AlgebraHom(small, big, qb.matrix.mul(quotient_section(base.dim, j)))

    def map_of(j1, j2):
        a1, _ = quotient(base, Ideal(base, fat(j1)))
        a2, q2 = quotient(base, Ideal(base, fat(j2)))
        return AlgebraHom(a1, a2, q2.matrix.mul(quotient_section(base.dim, fat(j1))))

    rs = RingedStructure(hom_from_quotient, map_of)
    f = functor_from_ringed_covering(e1, rs)
    assert f.ring(()).dim == 2
    assert f.ring((1,)).dim == 1 and f.ring((2,)).dim == 1
    assert f.ring((1, 2)).dim == 0
    assert cech_cohomology(build_cech(f)) == [2]


@pytest.mark.parametrize("make", (make_e1, make_e4, make_three_lines))
def test_the_default_ringed_functor_runs_no_naturality_walk(make, monkeypatch):
    def walk(*args):
        raise AssertionError("the covering's lattice is natural by construction")

    monkeypatch.setattr(RingedStructure, "validate_on", walk)
    c = make()
    assert cech_cohomology(build_cech(c)) == cech_cohomology(build_cech(lattice_functor(c)))
    assert ring(c, (1,)) is patch(c, 1)[0]


def _square_zero_covering(rng: random.Random, field) -> Covering:
    """A = k (+) V with V^2 = 0, dim V in {2, 3}, covered by 3 or 4 random
    lines of V: every subspace of V is an ideal, and the lattice of lines
    is often not distributive, which gives higher Cech cohomology."""
    m = rng.randint(2, 3)
    a = square_zero(field, m)
    lines = []
    for _ in range(rng.randint(3, 4)):
        v = [0] * (m + 1)
        while not any(field.coerce(x) for x in v):
            v = [0] + [rng.choice((0, 1, -1, 2)) for _ in range(m)]
        lines.append(ideal_closure(a, [v]))
    return Covering(a, lines)


def _stock_sum(rng: random.Random, field, count: int) -> tuple:
    """(A, units): a direct sum of ``count`` random stock blocks and the
    unit of each block, as a vector of A."""
    stock = (lambda: split_commutative(field, 1), lambda: matrix_algebra(field, 2),
             lambda: upper_triangular(field, 2), lambda: square_zero(field, 1))
    blocks = [rng.choice(stock)() for _ in range(count)]
    a = blocks[0]
    for b in blocks[1:]:
        a = direct_sum(a, b)
    units, off = [], 0
    for b in blocks:
        units.append([0] * off + list(b.unit) + [0] * (a.dim - off - b.dim))
        off += b.dim
    return a, units


def _block_covering(rng: random.Random, field) -> Covering:
    """A direct sum of stock blocks covered by 3 or 4 ideals, each the sum
    of a random set of blocks (the ideal of their units)."""
    a, units = _stock_sum(rng, field, rng.randint(2, 4))
    return Covering(a, [ideal_closure(a, [u for u in units if rng.random() < 0.5])
                        for _ in range(rng.randint(3, 4))])


def _point_like_covering(rng: random.Random, field) -> Covering:
    """A direct sum of N to 5 stock blocks covered by N in {3, 4} ideals;
    patch i keeps a set of blocks, I_i is the ideal of the other blocks'
    units.  Half the time the kept sets are disjoint, so I_i + I_j = A for
    all i != j and the nerve is N points; otherwise each patch keeps one or
    two random blocks, and two patches with no block in common still have
    I_i + I_j = A."""
    n = rng.randint(3, 4)
    a, units = _stock_sum(rng, field, rng.randint(n, 5))
    if rng.random() < 0.5:
        order = rng.sample(range(len(units)), len(units))
        kept = [order[i::n] for i in range(n)]
    else:
        kept = [rng.sample(range(len(units)), rng.randint(1, 2)) for _ in range(n)]
    return Covering(a, [ideal_closure(a, [u for k, u in enumerate(units) if k not in keep])
                        for keep in kept])


def test_the_covering_complex_equals_the_lattice_functor_complex():
    # Covering.cech reads dims and projection matrices; the reference
    # builds every quotient algebra and hom-checks every projection.  Both
    # complexes leave out every zero block, so they hold the nerve only
    higher, pruned, points = {}, {}, {}
    for field in (QQ, GF(2), GF(3)):
        rng = random.Random(f"lattice:{field!r}")
        coverings = [_square_zero_covering(rng, field) for _ in range(40)]
        coverings += [_block_covering(rng, field) for _ in range(15)]
        coverings += [_point_like_covering(rng, field) for _ in range(15)]
        higher[field] = pruned[field] = points[field] = 0
        for c in coverings:
            got, want = build_cech(c), build_cech(lattice_functor(c))
            assert got.spaces == want.spaces
            assert all(all(space.dims) for space in got.spaces + want.spaces)
            assert got.differentials == want.differentials
            dims = cech_cohomology(got)
            assert dims == cech_cohomology(want)
            higher[field] += any(dims[1:])
            pruned[field] += sum(len(space.words) for space in got.spaces) < 2 ** c.n_patches
            points[field] += not got.space(2).words
    assert all(higher.values())
    assert all(count >= 15 for count in pruned.values())
    assert all(count >= 3 for count in points.values())


def _functors_on(c: Covering) -> list:
    """Functors to hold the patch maps of the covering c to: c itself, its
    lattice functor, a constant functor with each patch algebra A_i and
    with other products of A_i's dimension, and cover functors on N
    patches and on N + 1."""
    n, field = c.n_patches, c.field
    functors = [c, lattice_functor(c)]
    for i in range(1, n + 1):
        a_i = patch(c, i)[0]
        functors.append(constant_functor(n, a_i))
        if a_i.dim:
            functors += [constant_functor(n, b) for b in (
                split_commutative(field, a_i.dim), truncated_polynomial(field, a_i.dim),
                square_zero(field, a_i.dim - 1))]
    points = frozenset((i,) for i in range(1, n + 1))
    everything = frozenset(zeta for k in range(1, n + 1) for zeta in all_tuples(n, k))
    functors += [functor_from_cover(CoverDescription(n, cover, field))
                 for cover in (points, everything)]
    functors.append(functor_from_cover(CoverDescription(n + 1, frozenset(
        (i,) for i in range(1, n + 2)), field)))
    return functors


def _outcome(call) -> tuple:
    """(the value, None) of call(), or (None, the type of its error)."""
    try:
        return call(), None
    except CechcoverError as exc:
        return None, type(exc)


def test_patch_maps_are_checked_exactly_when_the_identity_homs_are():
    # pi_i : A -> R({i}) is checked where the oracle checks the identity
    # A_i -> R({i}) on the patch algebra; the two fail together, and when
    # neither fails the patch map is the identity times pi_i
    errors = {field: [] for field in (QQ, GF(2), GF(3))}
    for field in errors:
        rng = random.Random(f"patch maps:{field!r}")
        coverings = [_square_zero_covering(rng, field) for _ in range(8)]
        coverings += [_block_covering(rng, field) for _ in range(4)]
        coverings += [_point_like_covering(rng, field) for _ in range(4)]
        for c in coverings:
            for f in _functors_on(c):
                maps, error = _outcome(lambda: patch_maps(f, c))
                choice, want = _outcome(lambda: default_phi_choice(f, c))
                assert error is want
                errors[field].append(error)
                if error is None:
                    assert maps == tuple(hom.matrix.mul(c.word_block((), (i,)))
                                         for i, hom in enumerate(choice, start=1))
    for seen in errors.values():
        # a rejection by the hom check, with equal dimensions, and by shape
        assert {None, StructureError, DimensionMismatchError} <= set(seen)


def test_a_supplied_structure_that_is_not_natural_is_refused(e1):
    # Phi(J) = A/J with the projections, but Phi_0 swaps e1 and e3: the
    # functor is the default one, the square at 0 -> I_1 does not commute
    zero = e1.ideal_sum_space(())
    swap = from_rows(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def hom_from_quotient(j):
        ring = quotient_of(e1, j)[0]
        return AlgebraHom(ring, ring, swap) if j == zero else AlgebraHom.identity(ring)

    with pytest.raises(StructureError) as err:
        functor_from_ringed_covering(
            e1, RingedStructure(hom_from_quotient, partial(projection_hom, e1)))
    assert err.value.witness == ("naturality", zero.basis.entries,
                                 e1.ideals[0].space.basis.entries)


# -- phi ---------------------------------------------------------------------------------

def test_phi_e1_product_in_pair_ring(e1):
    f = lattice_functor(e1)
    choice = default_phi_choice(f, e1)
    el = phi(f, choice, [(1, (1, 2)), (2, (3, 4))])
    assert el.component((1, 2), f).coords == (QQ.coerce(6),)


def test_phi_kills_repeated_indices(e1):
    f = lattice_functor(e1)
    choice = default_phi_choice(f, e1)
    el = phi(f, choice, [(1, (1, 2)), (1, (3, 4))])
    assert all(x == QQ.zero for x in el.coords)


def test_phi_kills_out_of_order_words(e1):
    # order-inherited reading of "ordered subsets": a word that is distinct
    # but unsorted is not one, and phi sends it to zero; this is what keeps
    # phi well defined and a chain map (the signed-sorting alternative
    # breaks the degree-1 square even on E1).
    f = lattice_functor(e1)
    choice = default_phi_choice(f, e1)
    el = phi(f, choice, [(2, (3, 4)), (1, (1, 2))])
    assert all(x == QQ.zero for x in el.coords)


def test_phi_degree_one_is_the_chosen_hom(e1):
    f = lattice_functor(e1)
    choice = default_phi_choice(f, e1)
    el = phi(f, choice, [(1, (5, 7))])
    assert el.component((1,), f).coords == (QQ.coerce(5), QQ.coerce(7))


def test_phi_kills_balancing_relation_elements(e1):
    # (y . pi_1(a)) (x) y' - y (x) (pi_2(a) . y') maps to zero under phi
    f = lattice_functor(e1)
    choice = default_phi_choice(f, e1)
    a1, pi1 = patch(e1, 1)
    a2, pi2 = patch(e1, 2)
    rng = random.Random(53)
    for _ in range(10):
        y = tuple(QQ.coerce(rng.randint(-3, 3)) for _ in range(a1.dim))
        yp = tuple(QQ.coerce(rng.randint(-3, 3)) for _ in range(a2.dim))
        a = tuple(QQ.coerce(rng.randint(-3, 3)) for _ in range(e1.algebra.dim))
        left = multiply(a1, y, pi1.matrix.apply(a))
        right = multiply(a2, pi2.matrix.apply(a), yp)
        el = phi_sum(f, choice, [(1, [(1, left), (2, yp)]), (-1, [(1, y), (2, right)])])
        assert all(x == QQ.zero for x in el.coords)


def test_phi_from_raw_coordinates_via_decompose(e1):
    # raw balanced coordinates -> weighted pure tensors -> phi agrees with
    # the matrix route
    f = lattice_functor(e1)
    choice = default_phi_choice(f, e1)
    tower = TensorTower(e1)
    rng = random.Random(67)
    coords = tuple(QQ.coerce(rng.randint(-3, 3)) for _ in range(tower.space(2).dim))
    terms = []
    for coeff, factors in tower.decompose(2, coords):
        pure = []
        for patch, local in factors:
            block = tower.base.block_by_word((patch,))
            v = [QQ.zero] * block.dim
            v[local] = QQ.one
            pure.append((patch, tuple(v)))
        terms.append((coeff, pure))
    via_decompose = phi_sum(f, choice, terms, degree=2)
    via_matrix = phi_matrix(f, choice, tower, 2).apply(coords)
    assert via_decompose.coords == via_matrix


def test_phi_matrix_well_defined_on_quotient(e1):
    f = lattice_functor(e1)
    choice = default_phi_choice(f, e1)
    tower = TensorTower(e1)
    for n in (1, 2, 3):
        raw = phi_raw_matrix(f, choice, tower, n)
        for v in kernel_basis(tower.flat(n)).basis.entries:
            assert all(x == QQ.zero for x in raw.apply(v))
        # the quotient matrix reproduces phi on pure tensors
        quot = phi_matrix(f, choice, tower, n)
        assert quot.mul(tower.flat(n)) == raw


def test_chain_map_e1(e1):
    f = lattice_functor(e1)
    report = verify_chain_map(build_amitsur(e1, 2), build_cech(f), patch_maps(f, e1))
    assert report.passed
    assert all(ch.ok for ch in report.squares)
    assert all(ch.ok for ch in report.well_defined)


def test_chain_map_e4(e4):
    f = lattice_functor(e4)
    report = verify_chain_map(build_amitsur(e4, 2), build_cech(f), patch_maps(f, e4))
    assert report.passed


def test_chain_map_trivial_covering():
    a = split_commutative(QQ, 2)
    c = Covering(a, [ideal_closure(a, [])])
    f = lattice_functor(c)
    report = verify_chain_map(build_amitsur(c, 2), build_cech(f), patch_maps(f, c))
    assert report.passed


def test_chain_map_over_f5():
    c = make_e1(GF(5))
    f = lattice_functor(c)
    report = verify_chain_map(build_amitsur(c, 2), build_cech(f), patch_maps(f, c))
    assert report.passed


def _twisted_plane(swapped: set) -> tuple:
    """The split plane covered three times by the zero ideal, and the
    functor with the plane on every tuple whose restrictions are the swap
    of e1, e2 on the inclusions named "zeta->eta" in ``swapped`` and the
    identity on the others."""
    a = split_commutative(QQ, 2)
    c = Covering(a, [ideal_closure(a, [])] * 3)
    swap = AlgebraHom(a, a, from_rows(QQ, [[0, 1], [1, 0]]))
    rings = {zeta: a for k in range(4) for zeta in all_tuples(3, k)}
    steps = {}
    for zeta, eta in ((z, tuple(sorted(z + (i,)))) for z in rings for i in range(1, 4)
                      if i not in z):
        name = ",".join(map(str, zeta)) + "->" + ",".join(map(str, eta))
        steps[(zeta, eta)] = swap if name in swapped else AlgebraHom.identity(a)
    return c, PosetFunctor(3, rings, steps)


@pytest.mark.parametrize("swapped, squares", [
    ({"->3", "3->1,3", "3->2,3"},
     ((False, "square fails on coordinate 0 of the block (3,); "
              "phi is not well defined in degree 2"),
      (True, "phi is not well defined in degree 2; phi is not well defined in degree 3"))),
    ({"->2", "2->1,2", "2->2,3"},
     ((False, "square fails on coordinate 0 of the block (2,); "
              "phi is not well defined in degree 2"),
      (False, "square fails on coordinate 0 of the block (2, 3); "
              "phi is not well defined in degree 2; phi is not well defined in degree 3"))),
])
def test_chain_map_witness_names_the_first_failing_block(swapped, squares):
    # the patch homs are identities and the restrictions out of one patch
    # swap e1 and e2: g_i and g_j differ on the pairs of that patch, so phi
    # is not well defined in degree 2, and the squares fail on its blocks
    c, f = _twisted_plane(swapped)
    report = verify_chain_map(build_amitsur(c, 2), build_cech(f), patch_maps(f, c))
    assert tuple((ch.ok, ch.witness) for ch in report.squares) == squares
    assert not report.passed


def test_random_ringed_functors_validate_and_square_to_zero():
    rng = random.Random(59)
    for field in (QQ, GF(5)):
        for _ in range(5):
            c = random_covering(rng, field, max_dim=5, max_patches=3)
            f = lattice_functor(c)  # validates internally
            build_cech(f)  # asserts d'.d' = 0


def test_phi_on_pure_rejects_nothing_quietly(e1):
    f = lattice_functor(e1)
    choice = default_phi_choice(f, e1)
    assert phi_on_pure(f, choice, [(1, (1, 0)), (2, (0, 1))]) is not None
    assert phi_on_pure(f, choice, [(2, (0, 1)), (1, (1, 0))]) is None


def test_cech_element_component_accessor(e1):
    f = lattice_functor(e1)
    layout = build_cech(f).layouts[1]
    el = CechElement(layout, (QQ.coerce(1), QQ.coerce(2), QQ.coerce(3), QQ.coerce(4)))
    assert el.component((2,), f).coords == (QQ.coerce(3), QQ.coerce(4))


def test_all_tuples_ordering():
    assert all_tuples(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert all_tuples(3, 0) == [()]
