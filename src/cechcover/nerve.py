"""Classical oracle: covers described by their nonempty overlaps.

A CoverDescription is an abstract simplicial complex on the patch set
(the nerve).  It induces a poset functor with the coefficient field on
every nonempty overlap and the zero ring elsewhere, and its simplicial
cohomology is computed here with the standard face-deletion coboundary.
The coboundary construction shares no code with the Cech d' builder, so
agreement between the two pipelines is evidence rather than tautology.
"""

from __future__ import annotations

from itertools import combinations

from .algebras import Algebra, AlgebraHom, algebra_from_terms, zero_algebra
from .cech import PosetFunctor, all_tuples, one_step_inclusions
from .errors import StructureError
from .linalg import Field, Matrix, rank
from .records import Frozen


class CoverDescription(Frozen):
    """Nonempty finite intersections of a cover, as increasing index tuples.

    Invariants: every singleton is present and the overlap set is downward
    closed (faces of nonempty overlaps are nonempty).
    """

    _fields = ("n_patches", "nonempty_overlaps", "field")

    def __init__(self, n_patches: int, nonempty_overlaps: frozenset, field: Field):
        super().__init__(n_patches, nonempty_overlaps, field)
        if self.n_patches < 1:
            raise ValueError("need at least one patch")
        for t in self.nonempty_overlaps:
            if list(t) != sorted(set(t)) or not t:
                raise StructureError(f"overlap {t} is not a strictly increasing tuple",
                                     witness=("tuple", t))
            if t[0] < 1 or t[-1] > self.n_patches:
                raise StructureError(f"overlap {t} out of range", witness=("range", t))
        for i in range(1, self.n_patches + 1):
            if (i,) not in self.nonempty_overlaps:
                raise StructureError(f"singleton ({i},) missing from the cover",
                                     witness=("singleton", i))
        for t in self.nonempty_overlaps:
            if len(t) > 1:
                for face in combinations(t, len(t) - 1):
                    if tuple(face) not in self.nonempty_overlaps:
                        raise StructureError(
                            f"downward closure violated: {t} present but face {face} missing",
                            witness=("closure", t, tuple(face)))

    def simplices(self, dim: int) -> list[tuple]:
        return sorted(t for t in self.nonempty_overlaps if len(t) == dim + 1)

    def max_dim(self) -> int:
        return max(len(t) for t in self.nonempty_overlaps) - 1


def _line(field: Field) -> Algebra:
    one = field.one
    return algebra_from_terms(field, 1, ((((0, one),),),), (one,), ("1",))


def functor_from_cover(cd: CoverDescription) -> PosetFunctor:
    """R(zeta) = k on nonempty overlaps, the zero ring elsewhere."""
    k = _line(cd.field)
    zero = zero_algebra(cd.field)
    rings = {(): k}
    for length in range(1, cd.n_patches + 1):
        for zeta in all_tuples(cd.n_patches, length):
            rings[zeta] = k if zeta in cd.nonempty_overlaps else zero
    steps = {}
    ident = AlgebraHom.identity(k)
    collapse = AlgebraHom(k, zero, Matrix(cd.field, 0, 1, ()))
    zero_id = AlgebraHom.identity(zero)
    for zeta, _, _, eta in one_step_inclusions(cd.n_patches):
        if rings[zeta].dim == 0:
            steps[(zeta, eta)] = zero_id
        else:
            steps[(zeta, eta)] = ident if rings[eta].dim == 1 else collapse
    return PosetFunctor(cd.n_patches, rings, steps)


def nerve_cohomology(cd: CoverDescription) -> list[int]:
    """Simplicial cohomology of the nerve with coefficients in the field.

    Cochains on d-simplices; (delta f)(s) = sum_k (-1)^k f(s minus its
    k-th vertex).  Reported for degrees 0..max simplex dimension.
    """
    field = cd.field
    top = cd.max_dim()
    simplices = [cd.simplices(d) for d in range(top + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in simplices]

    deltas = []
    for d in range(top):
        rows = len(simplices[d + 1])
        cols = len(simplices[d])
        out = []
        for s in simplices[d + 1]:
            row, sign = {}, field.one
            for k in range(len(s)):  # the faces of a simplex are distinct
                row[index[d][s[:k] + s[k + 1:]]] = sign
                sign = field.neg(sign)
            out.append(row)
        deltas.append(Matrix.from_nonzeros(field, rows, cols, tuple(out)))

    ranks = [0] + [rank(delta) for delta in deltas] + [0]
    return [len(simplices[d]) - ranks[d + 1] - ranks[d] for d in range(top + 1)]
