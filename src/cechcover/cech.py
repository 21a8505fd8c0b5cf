"""Poset functors on increasing index tuples, the Cech complex (S^n, d')
and the comparison map from the Amitsur complex.

Index tuples are strictly increasing tuples over 1..N; they are the
canonical representatives of ordered subsets, and the coboundary d' only
ever inserts one index into an existing tuple.  The sign of an insertion
is (-1)^pos with pos the 0-based position of the inserted index, which
reproduces the classical Cech coboundary and makes the two-path
cancellation identity hold.  The tuples and this rule live in
``cechcover.complexes``; ``one_step_inclusions`` enumerates the
insertions for every loop over a functor's restrictions.

(S^n, d') is a ``CechComplex`` (``cechcover.complexes``) on the strictly
increasing words with a nonzero ring, with the functor's restriction maps
as blocks; the Amitsur complex is the same construction on all patch
words.  A ``PosetFunctor`` is validated when it is constructed: every
ring and every step is checked for presence and endpoints first, since
the complex reads none between zero rings, then d' is assembled and its
squares checked as d'.d' = 0; ``build_cech`` returns that complex.
The default ringed functor is the covering itself (``Covering.cech``),
read off quotient dims and projection matrices with no algebra built:
natural by construction.  The functor of a supplied ringed structure,
with its naturality check, is in ``cechcover.oracles``: no problem file
can name one.

The comparison map phi sends a pure tensor y_1 (x) ... (x) y_n with patch
word (i_1, ..., i_n) to the product of the restricted images in the ring
of the word, when the word is strictly increasing, and to zero otherwise.
Zero on repeated indices follows the definition of the map; zero on
out-of-order words is what makes phi well defined over the balanced
tensor product and a chain map when the rings are noncommutative, and it
matches reading "ordered subsets" as order-inherited tuples.
``verify_chain_map`` checks phi block by block, as a word map assembled
like the differentials; evaluating it on pure tensors, as the definition
reads, is a test oracle in ``cechcover.oracles``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .algebras import Algebra, AlgebraHom
from .complexes import CechComplex, all_tuples, assemble, extensions
from .errors import DimensionMismatchError, StructureError
from .linalg import Matrix, section_columns
from .records import Frozen

if TYPE_CHECKING:  # annotations only: cech and oracle on a functor file load neither
    from .amitsur import AmitsurComplex
    from .coverings import Covering


def __getattr__(name: str):
    # bench/spans.py wraps phi_raw_matrix by name; this forwarder goes when
    # the bench stops wrapping oracles (ROADMAP item 1)
    if name == "phi_raw_matrix":
        from .oracles import phi_raw_matrix
        return phi_raw_matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Index tuples
# ---------------------------------------------------------------------------

def one_step_inclusions(n_patches: int):
    """(zeta, i, pos, eta) for every one-step inclusion over 1..N, by the
    length of zeta, then zeta in ``all_tuples`` order, then i."""
    for length in range(n_patches):
        for zeta in all_tuples(n_patches, length):
            for i, pos, eta in extensions(zeta, n_patches):
                yield zeta, i, pos, eta


# ---------------------------------------------------------------------------
# Poset functors
# ---------------------------------------------------------------------------

class PosetFunctor(Frozen):
    """Unital rings on increasing tuples with one-step restriction maps.

    ``rings`` must cover every tuple of length 0..N; ``steps`` holds the
    restriction for every inclusion that adds a single index, keyed by
    (zeta, eta).  The constructor runs ``validate_functor``, which raises
    StructureError unless they are well defined, and keeps the complex it
    assembled as ``cech``, the one attribute that is not a field, so the
    rings and steps must not be changed after construction.
    """

    _fields = ("n_patches", "rings", "steps")

    def __init__(self, n_patches: int, rings: dict, steps: dict):
        super().__init__(n_patches, rings, steps)
        self.__dict__["cech"] = validate_functor(self)

    def ring(self, zeta: Sequence[int]) -> Algebra:
        return self.rings[tuple(zeta)]


def validate_functor(f: PosetFunctor) -> CechComplex:
    """Presence of every ring, by length, then presence and endpoints of
    every step, in ``one_step_inclusions`` order, then commutation of every
    length-2 square (``CechComplex.check_squares``); returns the checked
    complex.  The complex reads only the nonzero rings and the steps
    between them, which loses no block: a step out of the zero ring lands
    in the zero ring (``AlgebraHom`` checks unit to unit)."""
    rings, steps = f.rings, f.steps
    for length in range(f.n_patches + 1):
        for zeta in all_tuples(f.n_patches, length):
            if zeta not in rings:
                raise StructureError(f"functor has no ring on {zeta}", witness=("missing", zeta))
    for zeta, _, _, eta in one_step_inclusions(f.n_patches):
        hom = steps.get((zeta, eta))
        if hom is None:
            raise StructureError(f"functor has no restriction {zeta} -> {eta}",
                                 witness=("missing-step", zeta, eta))
        if (hom.domain, hom.codomain) != (rings[zeta], rings[eta]):
            raise StructureError(f"restriction {zeta} -> {eta} has wrong endpoints",
                                 witness=("endpoints", zeta, eta))
    cx = CechComplex(rings[()].field, f.n_patches, lambda zeta: rings[zeta].dim,
                     lambda zeta, eta: steps[(zeta, eta)].matrix)
    cx.check_squares()
    return cx


def constant_functor(n_patches: int, ring: Algebra) -> PosetFunctor:
    """The same ring everywhere, identity restrictions."""
    if n_patches < 1:
        raise ValueError("need at least one patch")
    rings = {zeta: ring for length in range(n_patches + 1)
             for zeta in all_tuples(n_patches, length)}
    steps = dict.fromkeys(((zeta, eta) for zeta, _, _, eta in one_step_inclusions(n_patches)),
                          AlgebraHom.identity(ring))
    return PosetFunctor(n_patches, rings, steps)


# ---------------------------------------------------------------------------
# The Cech complex
# ---------------------------------------------------------------------------

def build_cech(f) -> CechComplex:
    """(S^n, d') of a functor, as its validation assembled and checked it
    (``validate_functor``), or of a covering (``Covering.cech``).

    d' adds every index i not in zeta with sign (-1)^(position of i).
    """
    return f.cech


def cech_cohomology(cx: CechComplex) -> list[int]:
    """Cohomology dimensions under the classical regrading.

    Degree-n cochains live on (n+1)-fold overlaps: H^n is the homology at
    S^(n+1), and S^0 = R(empty) is excluded, so H^0 is the full kernel of
    d' on S^1.  Trailing degrees whose cochain space is zero are trimmed.
    """
    top = max((n for n, s in enumerate(cx.spaces) if n and s.dim), default=0)
    return cx.homology(1, top + 1, 0)


# ---------------------------------------------------------------------------
# Chain-map verification
# ---------------------------------------------------------------------------

class DegreeCheck(Frozen):
    _fields = ("degree", "ok", "witness")
    _defaults = {"witness": None}


class ChainMapReport(Frozen):
    _fields = ("well_defined", "squares", "passed")

    def as_dict(self) -> dict:
        return {
            "well_defined": [{f: getattr(c, f) for f in c._fields} for c in self.well_defined],
            "squares": [{f: getattr(c, f) for f in c._fields} for c in self.squares],
            "passed": self.passed,
        }


def default_phi_choice(f, c: Covering) -> tuple:
    """Identity homs A_i -> R({i}), which ``AlgebraHom`` checks (default
    ringed data).  ``f`` is a functor or the covering itself, whose R({i}) is A_i."""
    if f.n_patches != c.n_patches:
        raise DimensionMismatchError(
            f"no default choice: the functor has {f.n_patches} patches, the covering {c.n_patches}")
    patches = (c.patch(i)[0] for i in range(1, c.n_patches + 1))
    return tuple(AlgebraHom(a_i, f.ring((i,)), Matrix.identity(a_i.field, a_i.dim))
                 for i, a_i in enumerate(patches, start=1))


def verify_chain_map(amitsur: AmitsurComplex, cx: CechComplex,
                     choice: Sequence[AlgebraHom]) -> ChainMapReport:
    """Check that phi is well defined and intertwines d and d'.

    For an increasing tuple zeta and i in zeta let g_i^zeta be
    rho_((i),zeta) . choice_i . pi_i : A -> R(zeta), a unital algebra hom,
    with pi_i block ((), (i,)) of the covering's d'_0.
    The balancing relations of B^((x)_A n) sit between adjacent factors,
    so phi is well defined in degree n exactly when g_i^zeta = g_j^zeta
    for consecutive i, j of every zeta of length n: 1 in the other factors
    gives necessity, multiplicativity gives sufficiency.  On the
    closed-form coordinates of ``amitsur`` (block w of C^(n-1) is A/I_set(w),
    see ``cechcover.amitsur``) block w of phi_n is g^w_(w_1) . s_w, with
    s_w the section of A -> A/I_set(w) (``section_columns``), when w is
    strictly increasing, and zero otherwise: phi_n is the word map that
    ``assemble`` builds from C^(n-1) to S^n, each word to itself, as it
    builds every differential.  For n = 1..n_max the square
    d'_n . phi_n = phi_(n+1) . d_(n-1) is compared on these matrices and a
    failure names the first block and coordinate where the sides differ.
    Where phi is not well defined in degree n or n + 1 the square's verdict
    depends on the chosen sections, and its witness says so.
    The degrees of ``amitsur`` bound the check; no raw tensor space is built.
    """
    c = amitsur.covering
    homs = {(i, (i,)): choice[i - 1].matrix.mul(c.word_block((), (i,)))
            for i in range(1, c.n_patches + 1)}

    def g(i: int, zeta: tuple) -> Matrix:
        # restrict along the insertions in increasing order, as the
        # oracles' ``restriction`` composes them
        m = homs.get((i, zeta))
        if m is None:
            last = max(x for x in zeta if x != i)
            prev = tuple(x for x in zeta if x != last)
            m = homs[(i, zeta)] = cx.block(prev, zeta).mul(g(i, prev))
        return m

    well = []
    for n in range(1, amitsur.n_max + 2):
        bad = None
        for zeta in cx.space(n).words:  # a zero ring has nothing to balance
            for i, j in zip(zeta, zeta[1:]):
                if g(i, zeta) != g(j, zeta):
                    bad = (f"phi does not kill a balancing relation on the word "
                           f"{zeta}: g_{i} != g_{j}")
                    break
            if bad:
                break
        well.append(DegreeCheck(n, bad is None, bad))

    # block w of phi_n sits on the Cech block of w itself; assemble drops
    # the words that S^n does not hold, those not increasing or of zero ring
    phis = {n: assemble(c.field, amitsur.space(n - 1), cx.space(n), lambda w: ((1, w),),
                        lambda w, _: section_columns(g(w[0], w), c.ideal_sum_space(w)))
            for n in range(1, amitsur.n_max + 2)}

    squares = []
    for n in range(1, amitsur.n_max + 1):
        lhs = cx.differential(n).mul(phis[n])
        rhs = phis[n + 1].mul(amitsur.differential(n - 1))
        notes = []
        if lhs != rhs:  # the first column where the rows differ
            col = min(k for a, b in zip(lhs.nonzeros, rhs.nonzeros) if a != b
                      for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            space = amitsur.space(n - 1)
            w = space.word_at(col)
            notes.append(f"square fails on coordinate {col - space.offset_of(w)[0]} "
                         f"of the block {w}")
        # where phi is not well defined its blocks depend on the sections s_w,
        # and so does this verdict
        notes.extend(f"phi is not well defined in degree {k}"
                     for k in (n, n + 1) if not well[k - 1].ok)
        squares.append(DegreeCheck(n, lhs == rhs, "; ".join(notes) or None))

    passed = all(ch.ok for ch in well) and all(ch.ok for ch in squares)
    return ChainMapReport(tuple(well), tuple(squares), passed)
