"""The shared differential assembler against the code it replaced.

``_differential`` (with its ``_IdealSums`` cache) is the Amitsur
assembler, and ``ref_cech_differentials`` the inline loop of
``build_cech``, as they stood before both complexes were built by one
word-complex assembler; they are kept verbatim as the reference, the way
``test_elimination.py`` keeps the dense row reduction.  ``ref_pi`` and
``ref_tau`` are the covering's stacked pi and pair-by-pair tau from before
they became degrees 0 -> 1 -> 2 of the covering's Cech complex, with the
projections pi_i_ij read from ``_IdealSums`` in place of the removed
``Covering.pair``.  Every differential of ``build_amitsur`` and
``build_cech``, and ``Covering.pi`` and ``Covering.tau``, must equal its
reference matrix entry for entry.

``ref_assemble`` is ``complexes.assemble`` as it stood before it wrote
each block straight into the rows of the differential: it scaled every
block by its sign sum as a ``Matrix`` and stacked the blocks with
``block_matrix``.  Fed the same word spaces, insertion rule and blocks,
it must give the same Amitsur, Cech, pi and tau matrices over Q, F_2,
F_3 and F_5, and the same matrices for insertion rules whose sign sums
reach +-3, which vanish over F_2 or F_3.

``ref_validate_functor`` is functor validation as it stood before the
commuting squares were checked as d'.d' = 0: it composes the two paths of
every square by hand.  On seeded broken functors it must accept and
reject the same functors as ``validate_functor``, with the same message
and witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cechcover.algebras import AlgebraHom, ideal_closure
from cechcover.amitsur import build_amitsur
from cechcover.cech import (
    PosetFunctor, all_tuples, build_cech, constant_functor,
    one_step_inclusions, validate_functor,
)
from cechcover.complexes import WordSpace, assemble, increasing_insertions
from cechcover.coverings import Covering
from cechcover.errors import StructureError
from cechcover.linalg import GF, QQ, Matrix, quotient_map
from cechcover.nerve import functor_from_cover
from cechcover.oracles import (
    block_matrix, from_rows, lattice_functor, matrix_add, matrix_algebra, quotient_section,
    random_cover_description, random_covering, scale, split_commutative, vstack,
)

from instances import make_e1, make_e4, make_three_lines


# -- the Amitsur assembler, verbatim ---------------------------------------------------

class _IdealSums:
    """Quotient coordinates of the ideal sums I_S of a covering (see
    ``Covering.ideal_sum_space``), for index sets S given as sorted tuples.

    The coordinates of each A/I_S and each projection A/I_S -> A/I_T
    between two sums are computed once.
    """

    def __init__(self, c: Covering):
        self.covering = c
        self.ambient = c.algebra.dim
        self._maps: dict = {}
        self._projections: dict = {}

    def dim(self, s: tuple) -> int:
        """dim A/I_S"""
        return self.ambient - self.covering.ideal_sum_space(s).dim

    def maps(self, s: tuple) -> tuple[Matrix, Matrix]:
        """The quotient map A -> A/I_S and its section."""
        m = self._maps.get(s)
        if m is None:
            w = self.covering.ideal_sum_space(s)
            m = self._maps[s] = (quotient_map(self.ambient, w),
                                 quotient_section(self.ambient, w))
        return m

    def projection(self, s: tuple, t: tuple) -> Matrix:
        """The canonical projection A/I_S -> A/I_T for S inside T."""
        key = (s, t)
        m = self._projections.get(key)
        if m is None:
            m = self._projections[key] = self.maps(t)[0].mul(self.maps(s)[1])
        return m


def _index_set(word: tuple) -> tuple:
    return tuple(sorted(set(word)))


def _differential(field, sums: _IdealSums, patches, src, dst) -> Matrix:
    """d = sum_k (-1)^k (insert 1_B at slot k), block by block.

    Inserting patch i at slot k maps block w to block w[:k] + (i,) + w[k:]
    by the projection A/I_set(w) -> A/I_(set(w) + {i}); the target word
    fixes i, so insertions that meet on one word add their signs.
    """
    row_of = {w: r for r, w in enumerate(dst.words)}
    blocks = {}
    for col, w in enumerate(src.words):
        signs: dict = {}
        for k in range(len(w) + 1):
            sign = -1 if k % 2 else 1
            for i in patches:
                row = row_of.get(w[:k] + (i,) + w[k:])
                if row is not None:
                    signs[row] = signs.get(row, 0) + sign
        s = _index_set(w)
        for row, x in signs.items():
            if x:
                proj = sums.projection(s, _index_set(dst.words[row]))
                blocks[(row, col)] = proj if x == 1 else scale(proj, field.coerce(x))
    return block_matrix(field, dst.dims, src.dims, blocks)


class _Words:
    def __init__(self, words, dims):
        self.words = tuple(words)
        self.dims = tuple(dims)


def ref_amitsur_differentials(c: Covering, n_max: int) -> list:
    """The word enumeration of the closed-form builder, then _differential."""
    sums = _IdealSums(c)
    patches = range(1, c.n_patches + 1)
    spaces = []
    words = [(i,) for i in patches if sums.dim((i,))]
    for n in range(n_max + 1):
        spaces.append(_Words(words, [sums.dim(_index_set(w)) for w in words]))
        words = [w + (i,) for w in words for i in patches if sums.dim(_index_set(w + (i,)))]
    return [_differential(c.field, sums, patches, src, dst)
            for src, dst in zip(spaces, spaces[1:])]


# -- the Cech loop, verbatim --------------------------------------------------------------

def _insert_index(zeta: tuple, i: int) -> tuple[int, tuple]:
    """Insert i into the increasing tuple zeta; returns (position, new tuple)."""
    if i in zeta:
        raise ValueError(f"{i} already in {zeta}")
    pos = 0
    while pos < len(zeta) and zeta[pos] < i:
        pos += 1
    return pos, zeta[:pos] + (i,) + zeta[pos:]


class _Layout:
    def __init__(self, blocks):
        self.blocks = tuple(blocks)  # (zeta, offset, dim)


def ref_cech_differentials(f) -> list:
    """The block layouts of S^0..S^N, then the loop of build_cech."""
    n = f.n_patches
    field = f.ring(()).field
    layouts = []
    for k in range(n + 1):
        blocks, off = [], 0
        for zeta in combinations(range(1, n + 1), k):
            d = f.ring(zeta).dim
            blocks.append((zeta, off, d))
            off += d
        layouts.append(_Layout(blocks))
    diffs = []
    for k in range(n):
        src, dst = layouts[k], layouts[k + 1]
        row_dims = [d for (_, _, d) in dst.blocks]
        col_dims = [d for (_, _, d) in src.blocks]
        dst_index = {z: bi for bi, (z, _, _) in enumerate(dst.blocks)}
        blocks = {}
        for ci, (zeta, _, _) in enumerate(src.blocks):
            for i in range(1, n + 1):
                if i in zeta:
                    continue
                pos, eta = _insert_index(zeta, i)
                mat = f.steps[(zeta, eta)].matrix
                if pos % 2 == 1:
                    mat = mat.neg()
                key = (dst_index[eta], ci)
                blocks[key] = matrix_add(blocks[key], mat) if key in blocks else mat
        diffs.append(block_matrix(field, row_dims, col_dims, blocks))
    return diffs


# -- pi and tau, pair by pair -------------------------------------------------------------

def ref_pi(c: Covering) -> Matrix:
    """pi = (+)_i pi_i : A -> (+)A_i as a stacked block column."""
    mats = [c.patch(i)[1].matrix for i in range(1, c.n_patches + 1)]
    out = mats[0]
    for m in mats[1:]:
        out = vstack(out, m)
    return out


def ref_tau(c: Covering) -> Matrix:
    """tau : (+)A_i -> (+)_(i<j) A_ij, block row (i,j) = pi_i_ij - pi_j_ij."""
    sums = _IdealSums(c)
    col_dims = [c.patch(i)[0].dim for i in range(1, c.n_patches + 1)]
    keys = list(combinations(range(1, c.n_patches + 1), 2))
    row_dims = [sums.dim(key) for key in keys]
    blocks = {}
    for r, (i, j) in enumerate(keys):
        blocks[(r, i - 1)] = sums.projection((i,), (i, j))
        blocks[(r, j - 1)] = sums.projection((j,), (i, j)).neg()
    if not keys:
        return Matrix(c.field, 0, sum(col_dims), tuple())
    return block_matrix(c.field, row_dims, col_dims, blocks)


# -- the word-complex assembler, block by block ---------------------------------------------

def ref_assemble(field, src, dst, insertions, block) -> Matrix:
    """The differential src -> dst.

    ``insertions(w)`` yields (sign, target word) for each letter inserted
    into the source word w; targets that ``dst`` does not hold are dropped.
    The signs are summed per target v, and block (v, w) of the result is
    that sum times ``block(w, v)``.
    """
    rows = dst.index
    blocks = {}
    for col, w in enumerate(src.words):
        signs: dict = {}
        for sign, v in insertions(w):
            row = rows.get(v)
            if row is not None:
                signs[row] = signs.get(row, 0) + sign
        for row, x in signs.items():
            if x:
                m = block(w, dst.words[row])
                blocks[(row, col)] = m if x == 1 else m.neg() if x == -1 else scale(m, x)
    return block_matrix(field, dst.dims, src.dims, blocks)


# -- functor validation, square by square ----------------------------------------------

def ref_validate_functor(f: PosetFunctor) -> None:
    """Presence of all tuples/steps plus commutation of every length-2 square."""
    n = f.n_patches
    for length in range(n + 1):
        for zeta in all_tuples(n, length):
            if zeta not in f.rings:
                raise StructureError(f"functor has no ring on {zeta}", witness=("missing", zeta))
    up = {}  # (zeta, i) -> zeta with i inserted
    for zeta, i, _, eta in one_step_inclusions(n):
        if (zeta, eta) not in f.steps:
            raise StructureError(f"functor has no restriction {zeta} -> {eta}",
                                 witness=("missing-step", zeta, eta))
        hom = f.steps[(zeta, eta)]
        if hom.domain != f.rings[zeta] or hom.codomain != f.rings[eta]:
            raise StructureError(f"restriction {zeta} -> {eta} has wrong endpoints",
                                 witness=("endpoints", zeta, eta))
        up[zeta, i] = eta
    # Functors reuse restriction maps (the constant functor has one), so each
    # distinct (outer, inner) pair of step matrices is composed once.
    composites: dict = {}

    def compose(outer: Matrix, inner: Matrix) -> Matrix:
        key = (id(outer), id(inner))
        product = composites.get(key)
        if product is None:
            product = composites[key] = outer.mul(inner)
        return product

    for zeta, i, _, via_i in one_step_inclusions(n):
        for j in range(i + 1, n + 1):
            via_j = up.get((zeta, j))
            if via_j is None:
                continue
            top = up[via_i, j]
            path1 = compose(f.steps[(via_i, top)].matrix, f.steps[(zeta, via_i)].matrix)
            path2 = compose(f.steps[(via_j, top)].matrix, f.steps[(zeta, via_j)].matrix)
            if path1 != path2:
                raise StructureError(
                    f"restriction square {zeta} -> {top} does not commute",
                    witness=("square", zeta, i, j))


# -- the comparisons -------------------------------------------------------------------------

def assert_same(actual, expected):
    assert len(actual) == len(expected)
    for n, (a, e) in enumerate(zip(actual, expected)):
        assert a == e, f"differential {n} differs"


@pytest.mark.parametrize("make", (make_e1, make_e4, make_three_lines))
@pytest.mark.parametrize("field", (QQ, GF(5)))
def test_amitsur_differentials_of_the_worked_instances(make, field):
    c = make(field)
    for n_max in (1, 2, 3, 4):
        assert_same(build_amitsur(c, n_max).differentials, ref_amitsur_differentials(c, n_max))


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)))
def test_random_coverings_amitsur_and_ringed_default(field):
    rng = random.Random(20260)
    for _ in range(12):
        c = random_covering(rng, field, max_dim=5, max_patches=3)
        assert_same(build_amitsur(c, 3).differentials, ref_amitsur_differentials(c, 3))
        f = lattice_functor(c)
        assert_same(build_cech(f).differentials, ref_cech_differentials(f))


@pytest.mark.parametrize("n", range(1, 7))
def test_constant_functors(n):
    for ring in (split_commutative(QQ, 1), matrix_algebra(QQ, 2), split_commutative(GF(5), 1)):
        f = constant_functor(n, ring)
        assert_same(build_cech(f).differentials, ref_cech_differentials(f))


@pytest.mark.parametrize("field", (QQ, GF(2)))
def test_cover_functors(field):
    rng = random.Random(7)
    for _ in range(15):
        f = functor_from_cover(random_cover_description(rng, max_patches=6, field=field))
        assert_same(build_cech(f).differentials, ref_cech_differentials(f))


def assert_pi_and_tau(c: Covering):
    assert c.pi == ref_pi(c)
    assert c.tau == ref_tau(c)


@pytest.mark.parametrize("make", (make_e1, make_e4, make_three_lines))
@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)))
def test_pi_and_tau_of_the_worked_instances(make, field):
    assert_pi_and_tau(make(field))


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)))
def test_pi_and_tau_of_random_coverings(field):
    rng = random.Random(20261018)
    for _ in range(20):
        assert_pi_and_tau(random_covering(rng, field, max_dim=5, max_patches=4))


@pytest.mark.parametrize("field", (QQ, GF(5)))
def test_pi_and_tau_of_a_one_patch_covering(field):
    a = matrix_algebra(field, 2)
    c = Covering(a, [ideal_closure(a, [])])
    assert c.tau.rows == 0 and c.tau.cols == 4
    assert_pi_and_tau(c)


def _verdict(validate, f) -> tuple | None:
    try:
        validate(f)
    except StructureError as exc:
        return str(exc), exc.witness
    return None


def _construct(f) -> None:
    PosetFunctor(f.n_patches, f.rings, f.steps)


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)))
@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_squares_of_broken_constant_functors(field, n):
    """The constant functor k^2 with 0-3 restriction steps replaced by the
    swap of the two factors, 5 seeds per count: 20 functors per case, 240
    in all."""
    rng = random.Random(1000 * n + field.characteristic)
    ring = split_commutative(field, 2)
    swap = AlgebraHom(ring, ring, from_rows(field, [[0, 1], [1, 0]]))
    base = constant_functor(n, ring)
    keys = list(base.steps)
    rejected = 0
    for swaps in range(4):
        for _ in range(5):
            steps = dict(base.steps)
            for key in rng.sample(keys, swaps):
                steps[key] = swap
            # a functor that has not been validated, for both routes to check
            f = PosetFunctor.__new__(PosetFunctor)
            vars(f).update(n_patches=n, rings=base.rings, steps=steps)
            expected = _verdict(ref_validate_functor, f)
            assert _verdict(validate_functor, f) == expected
            assert _verdict(_construct, f) == expected
            rejected += expected is not None
    assert rejected


# -- the row-direct assembler against the block-by-block one ------------------------------------

ASSEMBLY_FIELDS = (QQ, GF(2), GF(3), GF(5))


def ref_amitsur_by_assembler(c: Covering, cx) -> list:
    """The differentials of ``cx`` through ``ref_assemble``, with the
    insertion rule and blocks of ``build_amitsur``."""
    patches = range(1, c.n_patches + 1)

    def insertions(w):
        for k in range(len(w) + 1):
            for i in patches:
                yield -1 if k % 2 else 1, w[:k] + (i,) + w[k:]

    def block(w, v):
        return c.projection(c.ideal_sum_space(_index_set(w)), c.ideal_sum_space(_index_set(v)))

    return [ref_assemble(c.field, src, dst, insertions, block)
            for src, dst in zip(cx.spaces, cx.spaces[1:])]


def ref_cech_by_assembler(f) -> list:
    def block(zeta, eta):
        return f.steps[(zeta, eta)].matrix

    return [ref_assemble(f.ring(()).field, src, dst, increasing_insertions(f.n_patches), block)
            for src, dst in zip(build_cech(f).layouts, build_cech(f).layouts[1:])]


def ref_pi_tau_by_assembler(c: Covering) -> tuple:
    def block(s, t):
        return c.projection(c.ideal_sum_space(s), c.ideal_sum_space(t))

    spaces = [c.complex.space(n) for n in range(3)]
    pi, d1 = (ref_assemble(c.field, src, dst, increasing_insertions(c.n_patches), block)
              for src, dst in zip(spaces, spaces[1:]))
    return pi, d1.neg()


@pytest.mark.parametrize("field", ASSEMBLY_FIELDS)
def test_row_direct_assembly_of_coverings(field):
    rng = random.Random(20261019 + field.characteristic)
    coverings = [make(field) for make in (make_e1, make_e4, make_three_lines)]
    coverings += [random_covering(rng, field, max_dim=5, max_patches=4) for _ in range(10)]
    for c in coverings:
        assert (c.pi, c.tau) == ref_pi_tau_by_assembler(c)
        cx = build_amitsur(c, 3)
        assert_same(cx.differentials, ref_amitsur_by_assembler(c, cx))
        f = lattice_functor(c)
        assert_same(build_cech(f).differentials, ref_cech_by_assembler(f))


@pytest.mark.parametrize("field", ASSEMBLY_FIELDS)
def test_row_direct_assembly_of_functors(field):
    rng = random.Random(7 + field.characteristic)
    functors = [constant_functor(n, ring) for n in (1, 3, 5)
                for ring in (split_commutative(field, 1), matrix_algebra(field, 2))]
    functors += [functor_from_cover(random_cover_description(rng, max_patches=5, field=field))
                 for _ in range(8)]
    for f in functors:
        assert_same(build_cech(f).differentials, ref_cech_by_assembler(f))


@pytest.mark.parametrize("field", ASSEMBLY_FIELDS)
def test_row_direct_assembly_of_summed_signs(field):
    """Insertion rules that hit a target up to nine times with either
    sign, so the sign sums reach +-3 and some vanish only mod p; targets
    outside the target space are dropped."""
    rng = random.Random(20261020 + field.characteristic)
    values = (0, 0, 1, -1, 2, Fraction(-3, 4), Fraction(5, 6)) if field == QQ else (0, 0, 1, 2)
    for _ in range(40):
        src_words = tuple((i,) for i in range(rng.randint(0, 4)))
        src = WordSpace(src_words, tuple(rng.randint(0, 3) for _ in src_words))
        dst_words = tuple((i, j) for i in range(3) for j in range(2))
        dst = WordSpace(dst_words, tuple(rng.randint(0, 3) for _ in dst_words))
        hits = {w: [(rng.choice((1, -1)), (rng.randrange(4), rng.randrange(2)))
                    for _ in range(rng.randint(0, 9))] for w in src_words}
        blocks = {}

        def block(w, v):
            if (w, v) not in blocks:
                rows, cols = dst.offset_of(v)[1], src.offset_of(w)[1]
                blocks[(w, v)] = from_rows(field, [
                    [rng.choice(values) for _ in range(cols)] for _ in range(rows)]
                ) if rows else Matrix(field, 0, cols, ())
            return blocks[(w, v)]

        expected = ref_assemble(field, src, dst, hits.__getitem__, block)
        assert assemble(field, src, dst, hits.__getitem__, block) == expected
