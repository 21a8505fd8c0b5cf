from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

import cechcover.algebras
import cechcover.complexes
import cechcover.coverings
from cechcover.algebras import AlgebraHom, Ideal, ideal_closure
from cechcover.amitsur import build_amitsur
from cechcover.cech import build_cech
from cechcover.cli import _dispatch
from cechcover.complexes import WordComplex
from cechcover.coverings import (
    CompletenessReport, Covering, completeness_check, is_covering,
)
from cechcover.errors import StructureError
from cechcover.linalg import (
    GF, QQ, Matrix, Subspace, kernel_basis, quotient_map, rank, subspace_sum,
)
from cechcover.oracles import (
    contains_subspace, ideal_intersection, image_basis, quotient_section, random_algebra,
    random_covering, scale, search_incomplete_covering, split_commutative, to_lists,
)
from cechcover.problem import Problem, tuple_to_key

from instances import make_e1, make_e4, make_three_lines


def test_e1_is_complete(e1):
    assert is_covering(e1)
    rep = completeness_check(e1)
    assert rep.complete
    assert rep.intersection_dim == 0
    assert rep.ker_tau_dim == 3 and rep.im_pi_dim == 3


def test_e1_tau_matrix_frozen(e1):
    # A_1 keeps coordinates (e1, e2), A_2 keeps (e2, e3), A_12 keeps (e2):
    # tau(x1, x2) = x1[e2] - x2[e2].
    tau = e1.tau
    assert to_lists(tau) == [[0, 1, -1, 0]]
    assert kernel_basis(tau).dim == 3


def test_duplicate_ideals_are_not_a_covering():
    a = split_commutative(QQ, 3)
    i = ideal_closure(a, [(0, 0, 1)])
    c = Covering(a, [i, i])
    rep = completeness_check(c)
    assert not rep.is_covering and not rep.complete
    assert rep.intersection_dim == 1


def test_k40_three_patch_covering_is_checked_quickly():
    # basis vector a lies in the ideal of patch a % 3 only (14, 13, 13 of them)
    started = time.perf_counter()
    a = split_commutative(QQ, 40)
    ideals = [ideal_closure(a, [[1 if x % 3 == p else 0 for x in range(40)]])
              for p in range(3)]
    rep = completeness_check(Covering(a, ideals))
    elapsed = time.perf_counter() - started
    assert [i.space.dim for i in ideals] == [14, 13, 13]
    assert rep.as_dict() == {
        "is_covering": True, "intersection_dim": 0, "exact_at_A": True,
        "exact_at_B": True, "ker_tau_dim": 40, "im_pi_dim": 40, "complete": True}
    assert elapsed < 10, f"k^40 covering took {elapsed:.1f} s"


def test_single_zero_ideal_covering():
    a = split_commutative(QQ, 3)
    c = Covering(a, [ideal_closure(a, [])])
    rep = completeness_check(c)
    assert rep.is_covering and rep.complete
    tau = c.tau
    assert tau.rows == 0  # no pairs: ker tau is everything
    assert rep.ker_tau_dim == 3


def test_single_nonzero_ideal_is_incomplete():
    a = split_commutative(QQ, 3)
    c = Covering(a, [ideal_closure(a, [(0, 0, 1)])])
    rep = completeness_check(c)
    assert not rep.is_covering and not rep.complete


def test_e4_pair_quotient_is_zero(e4):
    assert e4.patch_dims() == (1, 4)
    assert e4.pair_dims() == (0,)
    tau = e4.tau
    assert tau.rows == 0
    rep = completeness_check(e4)
    assert rep.complete and rep.ker_tau_dim == 5 and rep.im_pi_dim == 5


def test_three_lines_covering_is_incomplete(three_lines):
    # pairwise sums are the whole radical, so the patch data cannot see
    # the difference between dim 3 and the 4-dimensional kernel of tau.
    rep = completeness_check(three_lines)
    assert rep.is_covering
    assert rep.exact_at_a
    assert not rep.exact_at_b
    assert rep.ker_tau_dim == 4 and rep.im_pi_dim == 3


def test_image_of_pi_always_inside_kernel_of_tau():
    rng = random.Random(31)
    for field in (QQ, GF(5)):
        for _ in range(10):
            c = random_covering(rng, field, max_dim=5, max_patches=3)
            im = image_basis(c.pi)
            ker = kernel_basis(c.tau)
            assert contains_subspace(ker, im)
            rep = completeness_check(c)
            assert rep.im_pi_dim == c.algebra.dim - rep.intersection_dim


def test_report_stable_under_permutation():
    rng = random.Random(37)
    for _ in range(8):
        c = random_covering(rng, QQ, max_dim=5, max_patches=3)
        rep = completeness_check(c)
        order = list(c.ideals)
        rng.shuffle(order)
        rep2 = completeness_check(Covering(c.algebra, order))
        assert rep.is_covering == rep2.is_covering
        assert rep.complete == rep2.complete
        assert rep.ker_tau_dim == rep2.ker_tau_dim


def test_incomplete_covering_search_finds_one():
    rng = random.Random(20260810)
    found = search_incomplete_covering(rng, QQ, attempts=300)
    assert found is not None, "search budget exhausted without an incomplete covering"
    rep = completeness_check(found)
    assert rep.is_covering and not rep.complete and not rep.exact_at_b
    # the structural inclusion still holds on the incomplete instance
    assert contains_subspace(kernel_basis(found.tau), image_basis(found.pi))


def test_three_lines_matches_hand_computation():
    # same instance over F_5: incompleteness is not a characteristic-0 artifact
    rep = completeness_check(make_three_lines(GF(5)))
    assert rep.is_covering and not rep.complete


def test_worked_instances_over_f5():
    assert completeness_check(make_e1(GF(5))).complete
    assert completeness_check(make_e4(GF(5))).complete


# -- the patch squares ---------------------------------------------------------------

def _covering_with_wrong_projections(pairs):
    """k^3 covered by <e1>, <e2>, <e3>, whose projection A/I_a -> A/I_ab is
    doubled for each (a, b) in ``pairs``; the pair sums are distinct, so no
    other square sees the wrong map."""
    a = split_commutative(QQ, 3)
    ideals = [ideal_closure(a, [tuple(int(k == i) for k in range(3))]) for i in range(3)]
    wrong = {(ideals[x - 1].space, subspace_sum(ideals[x - 1].space, ideals[y - 1].space))
             for x, y in pairs}

    class WrongProjections(Covering):
        def projection(self, j1, j2):
            m = super().projection(j1, j2)
            return scale(m, 2) if (j1, j2) in wrong else m

    return WrongProjections(a, ideals)


@pytest.mark.parametrize("pairs, named", (
    ([(2, 3)], (2, 3)),
    ([(1, 2)], (1, 2)),
    ([(2, 3), (1, 3)], (1, 3)),
    ([(1, 3), (1, 2)], (1, 2)),
))
def test_a_patch_square_that_does_not_commute_is_named(pairs, named):
    with pytest.raises(StructureError) as err:
        _covering_with_wrong_projections(pairs)
    assert err.value.witness == named
    assert str(err.value) == f"patch square ({named[0]},{named[1]}) does not commute"


def _coordinate_covering(n: int) -> Covering:
    """k^n covered by the ideals <e_1>, ..., <e_n>: 2^n distinct ideal sums."""
    a = split_commutative(QQ, n)
    return Covering(a, [ideal_closure(a, [tuple(int(k == i) for k in range(n))])
                        for i in range(n)])


class _WrongTripleProjection(Covering):
    """k^4 covered by <e1>..<e4>, whose projection A/I_12 -> A/I_123 is
    doubled: the triple sum lies outside degrees 0..2 of the Cech complex,
    so the patch sequence does not see it."""

    def projection(self, j1, j2):
        m = super().projection(j1, j2)
        wrong = (self.ideal_sum_space((1, 2)), self.ideal_sum_space((1, 2, 3)))
        return scale(m, 2) if (j1, j2) == wrong else m


@pytest.mark.parametrize("command", ("cech", "verify"))
def test_a_square_beyond_the_patch_sequence_fails_functor_validation(command):
    base = _coordinate_covering(4)
    c = _WrongTripleProjection(base.algebra, base.ideals)
    assert completeness_check(c).complete
    results, checks, code = _dispatch(command, Problem(c.field, c.algebra, {}, c, None, n_max=2))
    assert code == 1
    assert checks["functor_validation"] is False
    message = "restriction square (1,) -> (1, 2, 3) does not commute"
    witness = ("square", (1,), 2, 3)
    if command == "cech":
        assert results == {"error": message, "witness": repr(witness)}
    else:
        assert results["functor_witness"] == f"{message} [{witness!r}]"
        assert "cech_cohomology" not in results and "chain_map" not in checks


# -- tau_rank of the check report ------------------------------------------------------

def _reported_tau_rank(c: Covering) -> int:
    results, _, _ = _dispatch("check", Problem(c.field, c.algebra, {}, c, None))
    return results["tau_rank"]


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)))
def test_check_reports_the_rank_of_tau(field):
    coverings = [make(field) for make in (make_e1, make_e4, make_three_lines)]
    rng = random.Random(20261019)
    coverings += [random_covering(rng, field, max_dim=5, max_patches=4) for _ in range(20)]
    for c in coverings:
        assert _reported_tau_rank(c) == rank(c.tau)


# -- the rank route against the subspace route -----------------------------------------

def ref_completeness_check(c: Covering) -> CompletenessReport:
    """``completeness_check`` as it stood before it read every field off
    rank pi and rank tau: the intersection of the ideals, and im pi
    against ker tau compared as subspaces."""
    inter = ideal_intersection(list(c.ideals))
    covering = inter.dim == 0
    im_pi = image_basis(c.pi)
    ker_tau = kernel_basis(c.tau)
    exact_at_a = covering  # ker pi = intersection of the ideals
    exact_at_b = ker_tau == im_pi
    return CompletenessReport(
        is_covering=covering,
        intersection_dim=inter.dim,
        exact_at_a=exact_at_a,
        exact_at_b=exact_at_b,
        ker_tau_dim=ker_tau.dim,
        im_pi_dim=im_pi.dim,
        complete=covering and exact_at_a and exact_at_b,
    )


def _unfiltered_covering(rng: random.Random, field) -> Covering:
    """Random principal ideals of a random algebra, kept whether or not
    they meet in 0."""
    a = random_algebra(rng, field, max_dim=5)
    gens = ([field.coerce(rng.choice((0, 0, 1, -1, 2))) for _ in range(a.dim)]
            for _ in range(rng.randint(1, 3)))
    return Covering(a, [ideal_closure(a, [g]) for g in gens])


def _assert_both_routes_agree(c: Covering) -> CompletenessReport:
    ref = ref_completeness_check(c)
    assert completeness_check(c) == ref
    assert is_covering(c) == ref.is_covering
    return ref


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)))
def test_completeness_from_ranks_matches_the_subspace_route(field):
    rng = random.Random(20261020)
    coverings = [make(field) for make in (make_e1, make_e4, make_three_lines)]
    coverings += [random_covering(rng, field, max_dim=5, max_patches=4) for _ in range(12)]
    coverings += [_unfiltered_covering(rng, field) for _ in range(12)]
    reports = [_assert_both_routes_agree(c) for c in coverings]
    assert any(not r.is_covering for r in reports)
    assert any(r.is_covering and not r.complete for r in reports)


@pytest.mark.parametrize("field", (QQ, GF(5)))
def test_completeness_from_ranks_matches_on_found_incomplete_coverings(field):
    found = search_incomplete_covering(random.Random(20260810), field, attempts=300)
    assert found is not None
    ref = _assert_both_routes_agree(found)
    assert ref.is_covering and not ref.complete


# -- quotient algebras are built where a ring is read ----------------------------------

def _constructions(monkeypatch, command: str, c: Covering) -> tuple:
    """The ideal spaces of the quotient algebras and the (domain, codomain)
    of the algebra homs that one command builds on the covering ``c``."""
    quotients, homs = [], []
    real_quotient, real_init = cechcover.coverings.quotient, AlgebraHom.__init__

    def counted_quotient(a, j, **kwargs):
        quotients.append(j.space)
        return real_quotient(a, j, **kwargs)

    def counted_init(self, domain, codomain, matrix):
        homs.append((domain, codomain))
        real_init(self, domain, codomain, matrix)

    monkeypatch.setattr(cechcover.coverings, "quotient", counted_quotient)
    monkeypatch.setattr(AlgebraHom, "__init__", counted_init)
    _, checks, code = _dispatch(command, Problem(c.field, c.algebra, {}, c, None, n_max=2))
    assert code == 0 and all(v is True for v in checks.values())
    return quotients, homs


@pytest.mark.parametrize("command", ("check", "amitsur"))
def test_check_and_amitsur_build_no_quotient_algebra(monkeypatch, command):
    quotients, homs = _constructions(monkeypatch, command, make_three_lines())
    assert quotients == homs == []


@pytest.mark.parametrize("make", (make_e1, make_e4, make_three_lines,
                                  lambda: _coordinate_covering(6)),
                         ids=("e1", "e4", "three_lines", "coordinate6"))
def test_cech_on_the_default_functor_builds_no_quotient_algebra_and_no_hom(monkeypatch, make):
    # the covering is its own Cech functor: dims and projection matrices
    quotients, homs = _constructions(monkeypatch, "cech", make())
    assert quotients == homs == []


def test_verify_builds_only_the_patch_quotients(monkeypatch):
    # the chain-map check reads A_i and pi_i; the Cech complex reads no ring
    c = make_three_lines()
    quotients, homs = _constructions(monkeypatch, "verify", c)
    patches = [ideal.space for ideal in c.ideals]
    assert quotients == patches
    # per patch: pi_i : A -> A_i in its quotient, then the chosen identity
    # A_i -> R((i,)) = A_i
    assert homs == [pair for i in (1, 2, 3)
                    for pair in ((c.algebra, c.patch(i)[0]), (c.patch(i)[0],) * 2)]


# -- work done once per covering -------------------------------------------------------------

# the matrices each command ranks on three_lines at n_max 2: pi = d'_0 and
# d'_1 of the covering's Cech complex, d_0 and d_1 of the Amitsur complex,
# d'_2 of the Cech complex (cech never ranks d'_0); verify ranks d'_1 once
RANKED = {"check": 2, "amitsur": 4, "verify": 5, "cech": 2}


@pytest.mark.parametrize("command", tuple(RANKED))
def test_amitsur_ranks_pi_once(monkeypatch, command):
    # every rank is read off a WordComplex, which ranks each differential
    # at most once; completeness_check and the augmented degree 0 both read
    # the rank of pi off the covering's complex
    ranked = []
    real = cechcover.complexes.rank

    def counted(m):
        ranked.append(m)
        return real(m)

    monkeypatch.setattr(cechcover.complexes, "rank", counted)
    c = make_three_lines()
    _, _, code = _dispatch(command, Problem(c.field, c.algebra, {}, c, None, n_max=2))
    assert code == 0
    assert len({id(m) for m in ranked}) == len(ranked) == RANKED[command]
    assert sum(m is c.pi for m in ranked) == (command != "cech")


# the differentials each command assembles on three_lines at n_max 2: d'_0
# and d'_1 of the covering's Cech complex, d_0 and d_1 of the Amitsur
# complex, d'_2 of the same Cech complex
ASSEMBLED = {"check": 2, "cech": 3, "amitsur": 4, "verify": 5}


@pytest.mark.parametrize("command", tuple(ASSEMBLED))
def test_no_command_assembles_a_differential_twice(monkeypatch, command):
    # the covering holds one Cech complex, which assembles each degree once,
    # when it is first read: check reads degrees 0..2 only
    assembled = []
    real = cechcover.complexes.assemble

    def counted(field, src, dst, insertions, block):
        assembled.append((src, dst))
        return real(field, src, dst, insertions, block)

    monkeypatch.setattr(cechcover.complexes, "assemble", counted)
    c = make_three_lines()
    _, _, code = _dispatch(command, Problem(c.field, c.algebra, {}, c, None, n_max=2))
    assert code == 0
    assert len(set(assembled)) == len(assembled) == ASSEMBLED[command]
    if command in ("cech", "verify"):
        assert build_cech(c) is c.complex
        assert len(assembled) == ASSEMBLED[command]
    # one complex per covering: no second one is kept beside it
    assert {id(v) for v in vars(c).values() if isinstance(v, WordComplex)} == {id(c.complex)}


@pytest.mark.parametrize("make, sums", ((make_three_lines, 4), (make_e4, 2)),
                         ids=("three_lines", "e4"))
def test_verify_builds_one_quotient_map_per_ideal_sum(monkeypatch, make, sums):
    # the projections and the patch quotient algebras share one map per sum:
    # three_lines reads its 3 patch ideals and the one sum of any two or
    # three of them, e4 its 2 patch ideals only: their sum is A, whose
    # block is zero and left out of both complexes
    maps = []
    for module in (cechcover.coverings, cechcover.algebras):
        def counted(ambient_dim, w, real=module.quotient_map):
            maps.append(w)
            return real(ambient_dim, w)

        monkeypatch.setattr(module, "quotient_map", counted)
    c = make()
    _, checks, code = _dispatch("verify", Problem(c.field, c.algebra, {}, c, None, n_max=2))
    assert code == 0 and checks["chain_map"] is True
    assert len(maps) == len(set(maps)) == sums


def _point_covering(n: int) -> Covering:
    """k^n covered by the ideals <e_j : j != i>: each A_i is k and every sum
    of two ideals is A, so the nerve is n points."""
    a = split_commutative(QQ, n)
    return Covering(a, [ideal_closure(a, [tuple(int(k == j) for k in range(n)) for j in range(n)
                                          if j != i]) for i in range(n)])


def _sums_formed(monkeypatch, command: str, n: int):
    """(covering, results, number of ``subspace_sum`` calls) of one command
    on the point covering of k^n, its construction included."""
    sums = []
    real = cechcover.coverings.subspace_sum

    def counted(u, v):
        sums.append((u, v))
        return real(u, v)

    monkeypatch.setattr(cechcover.coverings, "subspace_sum", counted)
    c = _point_covering(n)
    results, _, code = _dispatch(command, Problem(c.field, c.algebra, {}, c, None))
    assert code == 0
    return c, results, len(sums)


def test_check_forms_only_the_patch_and_pair_sums(monkeypatch):
    # degrees 0..2 of the covering's complex read the sums of one and two
    # ideals; the whole lattice of k^12 would be 2^12 sums
    n = 12
    c, results, sums = _sums_formed(monkeypatch, "check", n)
    assert results["covering"]["complete"]
    assert results["pair_dims"] == [0] * (n * (n - 1) // 2)
    assert sums == n * (n - 1) // 2
    assert len(c._sum_spaces) == 1 + n + n * (n - 1) // 2


def test_cech_on_the_point_covering_forms_only_the_pair_sums(monkeypatch):
    # every sum of two of these ideals is A, so every pair block is zero and
    # no word of length 3 or more is a candidate: cech reads I_S for the
    # 1 + n + C(n, 2) words S of length at most 2, not the 2^n of the whole
    # lattice, and forms the C(n, 2) pair sums
    n = 12
    c, results, sums = _sums_formed(monkeypatch, "cech", n)
    assert results["cech_cohomology"] == [n]
    assert results["ring_dims"] == {tuple_to_key(s): (n, 1, 0)[min(len(s), 2)] for k in range(n + 1)
                                    for s in combinations(range(1, n + 1), k)}
    assert sums == n * (n - 1) // 2
    assert len(c._sum_spaces) == 1 + n + n * (n - 1) // 2
    assert [len(space.words) for space in c.complex.spaces] == [1, n] + [0] * (n - 1)
    assert c.ideal_sum_space(tuple(range(1, n + 1))) is c.ideal_sum_space((1, 2))


def test_equal_ideal_sums_are_one_object():
    # the projection cache is keyed by ideal sums: equal sums must be the
    # same object for a hit to skip comparing bases
    c = make_three_lines()
    sums = [c.ideal_sum_space(s) for s in ((1, 2), (1, 3), (2, 3), (1, 2, 3))]
    assert all(s is sums[0] for s in sums)


def test_neither_the_closure_nor_the_quotients_rerun_the_two_sided_check(monkeypatch):
    # a closure fixpoint and a sum of two-sided ideals are two-sided ideals:
    # building the coverings by ideal_closure and running verify, which
    # takes the quotient by every ideal sum, checks no ideal again
    calls = []
    real = cechcover.algebras._check_two_sided

    def counted(algebra, space):
        calls.append(space)
        real(algebra, space)

    monkeypatch.setattr(cechcover.algebras, "_check_two_sided", counted)
    for c in (make_three_lines(), make_e4()):
        _, _, code = _dispatch("verify", Problem(c.field, c.algebra, {}, c, None, n_max=2))
        assert code == 0
    assert calls == []
    # a subspace that is no ideal sum is still checked: span(e11) in M_2 (+) k
    with pytest.raises(StructureError):
        c.quotient(Subspace.from_vectors(c.field, 5, [(1, 0, 0, 0, 0)]))
    assert len(calls) == 1


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=("Q", "F5"))
def test_unchecked_ideals_pass_the_checking_constructor(monkeypatch, field):
    proven = []
    real = cechcover.algebras.Ideal._proven

    def recorded(algebra, space):
        ideal = real(algebra, space)
        proven.append(ideal)
        return ideal

    monkeypatch.setattr(cechcover.algebras.Ideal, "_proven", staticmethod(recorded))
    rng = random.Random(19)
    for _ in range(25):
        c = random_covering(rng, field, max_dim=6, max_patches=3)
        for n in range(c.n_patches + 1):
            for s in combinations(range(1, c.n_patches + 1), n):
                c.quotient(c.ideal_sum_space(s))
    assert len(proven) > 100
    for ideal in proven:
        assert Ideal(ideal.algebra, ideal.space) == ideal


# -- projections between ideal sums ------------------------------------------------------------

@pytest.mark.parametrize("field", (QQ, GF(2), GF(3)), ids=repr)
def test_a_projection_is_the_quotient_map_times_the_section(field):
    # the section of J1 is a column selection, so the covering selects the
    # columns of J2's quotient map where the product would multiply
    rng = random.Random(f"projection:{field!r}")
    selected = 0
    for _ in range(30):
        c = random_covering(rng, field, max_dim=6, max_patches=3)
        dim, n = c.algebra.dim, c.n_patches
        words = [w for k in range(n + 1) for w in combinations(range(1, n + 1), k)]
        for s in words:
            for t in words:
                if set(s) < set(t):
                    j1, j2 = c.ideal_sum_space(s), c.ideal_sum_space(t)
                    want = quotient_map(dim, j2).mul(quotient_section(dim, j1))
                    assert c.projection(j1, j2) == want
                    selected += bool(j1.dim and want.rows and want.cols)
    assert selected > 50


def test_projections_multiply_no_matrix_and_map_each_ideal_sum_once(monkeypatch):
    inside, products, maps = [], [], []
    real_mul, real_projection = Matrix.mul, Covering.projection
    real_map = cechcover.coverings.quotient_map

    def mul(a, b):
        products.extend(inside)
        return real_mul(a, b)

    def projection(self, j1, j2):
        inside.append((j1, j2))
        try:
            return real_projection(self, j1, j2)
        finally:
            inside.pop()

    def quotient_map(ambient_dim, w):
        maps.append(w)
        return real_map(ambient_dim, w)

    monkeypatch.setattr(Matrix, "mul", mul)
    monkeypatch.setattr(Covering, "projection", projection)
    monkeypatch.setattr(cechcover.coverings, "quotient_map", quotient_map)
    c = _coordinate_covering(5)
    c.cech
    # every nonempty index set of the coordinate covering but [5] has its
    # own sum; the sum of all five ideals is A, whose block is zero, so no
    # projection maps into it
    assert len(maps) == len({id(w) for w in maps}) == 2 ** 5 - 2
    c = make_three_lines()
    build_amitsur(c, 4)
    c.cech
    # the pair sums and the triple sum of three_lines are one sum, the span
    # of x and y
    assert len(maps) - 30 == len({id(w) for w in maps[30:]}) == 4
    assert products == []
