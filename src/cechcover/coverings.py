"""Coverings of an algebra by two-sided ideals and the completeness check.

A covering is an ordered family I_1..I_N of ideals with zero intersection.
Completeness asks the patch sequence 0 -> A -> (+)A_i -> (+)A_ij to be
exact.  Every map in it is k-linear, so exactness is a statement about
k-dimensions, and all of it is read off rank pi and rank tau
(``completeness_check``).

A covering is its own Cech functor, the default ringed one: a block
A/I_S per increasing index tuple S, the projections as blocks, and no
quotient algebra built, here or by any command: one complex per covering
(``Covering.complex``), built degree by degree.  The block A/I_set(w) of
any patch word w and the projections between blocks are the covering's
(``word_dim``, ``word_block``), for the Amitsur complex too.  The patch sequence is the
complex's degrees 0 -> 1 -> 2: pi is d'_0 and tau is -d'_1.  The
constructor checks the patch squares as d'_1 . pi = 0 and reads no sum of
three ideals; the complex stores rank pi and rank tau.  Only ordered pairs
i < j are materialized in the target of tau: the (j,i) blocks are
negatives of the (i,j) blocks and carry no extra rank.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .algebras import Algebra, Ideal
from .complexes import CechComplex, all_tuples
from .errors import DimensionMismatchError, StructureError
from .linalg import Field, Matrix, Subspace, quotient_map, section_columns, subspace_sum
from .records import Frozen


class CompletenessReport(Frozen):
    _fields = ("is_covering", "intersection_dim", "exact_at_a", "exact_at_b",
               "ker_tau_dim", "im_pi_dim", "complete")

    def as_dict(self) -> dict:
        return {
            "is_covering": self.is_covering,
            "intersection_dim": self.intersection_dim,
            "exact_at_A": self.exact_at_a,
            "exact_at_B": self.exact_at_b,
            "ker_tau_dim": self.ker_tau_dim,
            "im_pi_dim": self.im_pi_dim,
            "complete": self.complete,
        }


class Covering:
    """An algebra with an ordered list of ideals and derived patch data.

    Patch indices are 1-based.  ``complex`` has one block A/I_S per
    increasing index tuple S of length n in degree n, A/I_S nonzero, so
    degree 1 holds the patches and degree 2 the pairs A_ij.  The
    constructor stores its d'_0 as ``pi`` and -d'_1 as ``tau`` and
    verifies, for i < j, the square pi_i_ij . pi_i = pi_j_ij . pi_j
    (pi_i_ij: A_i -> A_ij the projection); ``cech`` checks every square.

    The covering also holds the lattice of its ideal sums: I_set(w) for
    each patch word w (``ideal_sum_space``), and for each ideal space J
    among them its quotient map and the projections A/J -> A/J' for J
    inside J'.  Each is computed once, when first asked for, and shared by
    everything built on the covering.  Equal ideal sums are one object, so
    the caches keyed by them match by identity.  The complexes and the
    chain-map check need only these matrices; the quotient algebras A/J
    are test oracles (``cechcover.oracles.quotient_of``).
    """

    def __init__(self, algebra: Algebra, ideals: Sequence[Ideal]):
        if not ideals:
            raise ValueError("a covering needs at least one ideal")
        for ideal in ideals:
            if ideal.algebra != algebra:
                raise DimensionMismatchError("ideal belongs to a different algebra")
        self.algebra = algebra
        self.ideals = tuple(ideals)
        self.n_patches = len(self.ideals)

        self._interned: dict = {}  # each ideal sum -> the first equal one seen
        self._sum_spaces = {(): self._intern(Subspace.zero(self.field, algebra.dim))}
        self._sum_spaces.update(((i,), self._intern(ideal.space))
                                for i, ideal in enumerate(self.ideals, start=1))
        self._quotient_maps: dict = {}
        self._projections: dict = {}

        self.complex = CechComplex(self.field, self.n_patches, self.word_dim, self.word_block)
        # block (a,b) of d'_1 . pi is pi_b_ab . pi_b - pi_a_ab . pi_a
        failure = self.complex.first_nonzero_square(1)
        if failure is not None:
            a, b = failure[2]
            raise StructureError(f"patch square ({a},{b}) does not commute", witness=(a, b))
        self.pi = self.complex.differential(0)
        self.tau = self.complex.differential(1).neg()

    @property
    def field(self) -> Field:
        return self.algebra.field

    def _intern(self, space: Subspace) -> Subspace:
        return self._interned.setdefault(space, space)

    @cached_property
    def cech(self) -> CechComplex:
        """``complex``, the Cech complex of zeta -> A/I_zeta, its squares checked."""
        self.complex.check_squares()
        return self.complex

    def ideal_sum_space(self, w: tuple) -> Subspace:
        """I_set(w), the sum of the I_i over the letters i of the patch word
        w: the sum of its index set S, the sorted tuple of the letters, which
        extends the prefix I_(S[:-1]).  Each word's sum is found once; a sum
        whose prefix is already all of A is that prefix, formed with no sum."""
        space = self._sum_spaces.get(w)
        if space is None:
            s = tuple(sorted(set(w)))
            space = self.ideal_sum_space(s if s != w else s[:-1])
            if s == w and space.dim < self.algebra.dim:
                space = self._intern(subspace_sum(space, self.ideals[s[-1] - 1].space))
            self._sum_spaces[w] = space
        return space

    def word_dim(self, w: tuple) -> int:
        """dim A/I_set(w), the block of the patch word w in either complex."""
        return self.algebra.dim - self.ideal_sum_space(w).dim

    def word_block(self, w: tuple, v: tuple) -> Matrix:
        """Block (w, v) of either complex: the projection A/I_set(w) -> A/I_set(v)."""
        return self.projection(self.ideal_sum_space(w), self.ideal_sum_space(v))

    def _quotient_map(self, j: Subspace) -> Matrix:
        """``quotient_map`` of J, built once per ideal sum."""
        m = self._quotient_maps.get(j)
        if m is None:
            m = self._quotient_maps[j] = quotient_map(self.algebra.dim, j)
        return m

    def projection(self, j1: Subspace, j2: Subspace) -> Matrix:
        """The canonical projection A/J1 -> A/J2 for J1 inside J2, on the
        ``quotient_map`` coordinates; no quotient algebra is built.

        It is J2's quotient map times the section of J1, whose columns are
        non-pivot axes of J1, so it is those columns of J2's map
        (``section_columns``)."""
        key = (j1, j2)
        m = self._projections.get(key)
        if m is None:
            m = self._projections[key] = section_columns(self._quotient_map(j2), j1)
        return m

    def patch_dims(self) -> tuple[int, ...]:
        return tuple(map(self.word_dim, all_tuples(self.n_patches, 1)))

    def pair_dims(self) -> tuple[int, ...]:
        return tuple(map(self.word_dim, all_tuples(self.n_patches, 2)))


def is_covering(c: Covering) -> bool:
    """Whether the ideals meet in 0, that is whether pi is injective."""
    return c.complex.rank(0) == c.algebra.dim


def completeness_check(c: Covering) -> CompletenessReport:
    """Exactness of 0 -> A -> (+)A_i -> (+)A_ij at A and at (+)A_i, from
    rank pi and rank tau alone.

    Block i of pi is ``quotient_map`` of I_i, whose kernel is I_i, so
    ker pi is the intersection of the ideals: its dimension is
    dim A - rank pi, and the sequence is exact at A exactly when pi has
    full rank.  The constructor has checked tau . pi = 0, so im pi lies
    inside ker tau, and the two are equal exactly when their dimensions,
    rank pi and dim (+)A_i - rank tau, are; rank tau is rank d'_1.
    """
    im_pi_dim = c.complex.rank(0)
    ker_tau_dim = c.tau.cols - c.complex.rank(1)
    covering = is_covering(c)
    exact_at_b = ker_tau_dim == im_pi_dim
    return CompletenessReport(
        is_covering=covering,
        intersection_dim=c.algebra.dim - im_pi_dim,
        exact_at_a=covering,
        exact_at_b=exact_at_b,
        ker_tau_dim=ker_tau_dim,
        im_pi_dim=im_pi_dim,
        complete=covering and exact_at_b,
    )
