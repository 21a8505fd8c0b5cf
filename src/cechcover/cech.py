"""Poset functors on increasing index tuples, the Cech complex (S^n, d'),
ringed structures, and the comparison map from the Amitsur complex.

Index tuples are strictly increasing tuples over 1..N; they are the
canonical representatives of ordered subsets, and the coboundary d' only
ever inserts one index into an existing tuple.  The sign of an insertion
is (-1)^pos with pos the 0-based position of the inserted index, which
reproduces the classical Cech coboundary and makes the two-path
cancellation identity hold.

The comparison map phi sends a pure tensor y_1 (x) ... (x) y_n with patch
word (i_1, ..., i_n) to the product of the restricted images in the ring
of the word, when the word is strictly increasing, and to zero otherwise.
Zero on repeated indices follows the definition of the map; zero on
out-of-order words is what makes phi well defined over the balanced
tensor product and a chain map when the rings are noncommutative, and it
matches reading "ordered subsets" as order-inherited tuples.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Callable, Optional, Sequence

from .algebras import Algebra, AlgebraHom, Element, quotient
from .amitsur import AmitsurComplex, TensorTower
from .coverings import Covering
from .errors import DimensionMismatchError, NotAComplexError, StructureError
from .linalg import (
    Matrix, Subspace, block_matrix, quotient_map, quotient_section, rank,
)
from .records import Frozen, Record


# ---------------------------------------------------------------------------
# Index tuples
# ---------------------------------------------------------------------------

def validate_index_tuple(t: Sequence[int], n_patches: int) -> tuple:
    t = tuple(t)
    for a, b in zip(t, t[1:]):
        if a >= b:
            raise ValueError(f"index tuple {t} is not strictly increasing")
    if t and (t[0] < 1 or t[-1] > n_patches):
        raise ValueError(f"index tuple {t} out of range 1..{n_patches}")
    return t


def insert_index(zeta: tuple, i: int) -> tuple[int, tuple]:
    """Insert i into the increasing tuple zeta; returns (position, new tuple)."""
    if i in zeta:
        raise ValueError(f"{i} already in {zeta}")
    pos = 0
    while pos < len(zeta) and zeta[pos] < i:
        pos += 1
    return pos, zeta[:pos] + (i,) + zeta[pos:]


def all_tuples(n_patches: int, length: int) -> list[tuple]:
    return [tuple(c) for c in combinations(range(1, n_patches + 1), length)]


# ---------------------------------------------------------------------------
# Poset functors
# ---------------------------------------------------------------------------

class PosetFunctor(Record):
    """Unital rings on increasing tuples with one-step restriction maps.

    ``rings`` must cover every tuple of length 0..N; ``steps`` holds the
    restriction for every inclusion that adds a single index, larger jumps
    are derived by composition (well defined once validated).
    """

    _fields = ("n_patches", "rings", "steps")

    def __init__(self, n_patches: int, rings: dict, steps: dict):
        self.n_patches = n_patches
        self.rings = rings
        self.steps = steps

    def ring(self, zeta: Sequence[int]) -> Algebra:
        return self.rings[tuple(zeta)]

    def step(self, zeta: tuple, eta: tuple) -> AlgebraHom:
        return self.steps[(tuple(zeta), tuple(eta))]

    def restriction(self, zeta: Sequence[int], eta: Sequence[int]) -> AlgebraHom:
        """Composite restriction for zeta a subtuple of eta."""
        zeta, eta = tuple(zeta), tuple(eta)
        if not set(zeta) <= set(eta):
            raise ValueError(f"{zeta} is not a subtuple of {eta}")
        if zeta == eta:
            return AlgebraHom.identity(self.ring(zeta))
        current = zeta
        mat = Matrix.identity(self.ring(zeta).field, self.ring(zeta).dim)
        for i in sorted(set(eta) - set(zeta)):
            _, nxt = insert_index(current, i)
            step = self.step(current, nxt)
            mat = step.matrix.mul(mat)
            current = nxt
        return AlgebraHom(self.ring(zeta), self.ring(eta), mat)


def validate_functor(f: PosetFunctor) -> None:
    """Presence of all tuples/steps plus commutation of every length-2 square."""
    n = f.n_patches
    for length in range(n + 1):
        for zeta in all_tuples(n, length):
            if zeta not in f.rings:
                raise StructureError(f"functor has no ring on {zeta}", witness=("missing", zeta))
    for length in range(n):
        for zeta in all_tuples(n, length):
            for i in range(1, n + 1):
                if i in zeta:
                    continue
                _, eta = insert_index(zeta, i)
                if (zeta, eta) not in f.steps:
                    raise StructureError(f"functor has no restriction {zeta} -> {eta}",
                                         witness=("missing-step", zeta, eta))
                hom = f.steps[(zeta, eta)]
                if hom.domain != f.rings[zeta] or hom.codomain != f.rings[eta]:
                    raise StructureError(f"restriction {zeta} -> {eta} has wrong endpoints",
                                         witness=("endpoints", zeta, eta))
    # Functors reuse restriction maps (the constant functor has one), so each
    # distinct (outer, inner) pair of step matrices is composed once.
    composites: dict = {}

    def compose(outer: Matrix, inner: Matrix) -> Matrix:
        key = (id(outer), id(inner))
        product = composites.get(key)
        if product is None:
            product = composites[key] = outer.mul(inner)
        return product

    for length in range(n - 1):
        for zeta in all_tuples(n, length):
            rest = [i for i in range(1, n + 1) if i not in zeta]
            up = {i: insert_index(zeta, i)[1] for i in rest}
            for i, j in combinations(rest, 2):
                via_i, via_j = up[i], up[j]
                _, top = insert_index(via_i, j)
                path1 = compose(f.steps[(via_i, top)].matrix, f.steps[(zeta, via_i)].matrix)
                path2 = compose(f.steps[(via_j, top)].matrix, f.steps[(zeta, via_j)].matrix)
                if path1 != path2:
                    raise StructureError(
                        f"restriction square {zeta} -> {top} does not commute",
                        witness=("square", zeta, i, j))


def constant_functor(n_patches: int, ring: Algebra) -> PosetFunctor:
    """The same ring everywhere, identity restrictions."""
    if n_patches < 1:
        raise ValueError("need at least one patch")
    rings = {}
    steps = {}
    for length in range(n_patches + 1):
        for zeta in all_tuples(n_patches, length):
            rings[zeta] = ring
    ident = AlgebraHom.identity(ring)
    for length in range(n_patches):
        for zeta in all_tuples(n_patches, length):
            for i in range(1, n_patches + 1):
                if i not in zeta:
                    _, eta = insert_index(zeta, i)
                    steps[(zeta, eta)] = ident
    return PosetFunctor(n_patches, rings, steps)


# ---------------------------------------------------------------------------
# Ringed structures
# ---------------------------------------------------------------------------

class RingedStructure:
    """Functorial assignment J -> (Phi(J), Phi_J : A/J -> Phi(J)).

    ``ring_of``/``hom_from_quotient``/``map_of`` take ideal subspaces of
    the base algebra (canonical by RREF, hence usable as cache keys).
    ``map_of(J1, J2)`` is the Phi-image of the projection A/J1 -> A/J2.
    """

    def __init__(self, base: Algebra,
                 ring_of: Callable[[Subspace], Algebra],
                 hom_from_quotient: Callable[[Subspace], AlgebraHom],
                 map_of: Callable[[Subspace, Subspace], AlgebraHom],
                 name: str = "custom"):
        self.base = base
        self._ring_of = ring_of
        self._hom = hom_from_quotient
        self._map = map_of
        self.name = name

    def ring_of(self, j: Subspace) -> Algebra:
        return self._ring_of(j)

    def hom_from_quotient(self, j: Subspace) -> AlgebraHom:
        return self._hom(j)

    def map_of(self, j1: Subspace, j2: Subspace) -> AlgebraHom:
        return self._map(j1, j2)

    @staticmethod
    def default(c: Covering) -> "RingedStructure":
        """Phi(J) = A/J with Phi_J the identity and Phi(proj) the projection,
        on the ideals of the covering's lattice.  The quotients the covering
        has built are not built again."""
        base = c.algebra
        quotients = dict(c.quotients)
        maps: dict = {}

        def quot(j: Subspace):
            if j not in quotients:
                quotients[j] = quotient(base, _as_ideal(base, j))
            return quotients[j]

        def ring_of(j: Subspace) -> Algebra:
            return quot(j)[0]

        def hom_from_quotient(j: Subspace) -> AlgebraHom:
            return AlgebraHom.identity(quot(j)[0])

        def map_of(j1: Subspace, j2: Subspace) -> AlgebraHom:
            key = (j1, j2)
            if key not in maps:
                a1, _ = quot(j1)
                a2, q2 = quot(j2)
                s1 = quotient_section(base.dim, j1)
                maps[key] = AlgebraHom(a1, a2, q2.matrix.mul(s1))
            return maps[key]

        return RingedStructure(base, ring_of, hom_from_quotient, map_of, name="default")

    def validate_on(self, ideal_spaces: Sequence[Subspace]) -> None:
        """Check the naturality squares for every comparable pair in the list."""
        base = self.base

        # each distinct ideal's quotient map, section and Phi_J is built once
        @cache
        def quotient_matrix(j: Subspace) -> Matrix:
            return quotient_map(base.dim, j)

        @cache
        def section(j: Subspace) -> Matrix:
            return quotient_section(base.dim, j)

        @cache
        def hom(j: Subspace) -> Matrix:
            return self.hom_from_quotient(j).matrix

        for j1 in ideal_spaces:
            for j2 in ideal_spaces:
                if j1 == j2 or not j2.contains_subspace(j1):
                    continue
                proj = quotient_matrix(j2).mul(section(j1))
                lhs = hom(j2).mul(proj)
                rhs = self.map_of(j1, j2).matrix.mul(hom(j1))
                if lhs != rhs:
                    raise StructureError(
                        "ringed-structure naturality square does not commute",
                        witness=("naturality", j1.basis.entries, j2.basis.entries))


def _as_ideal(base: Algebra, space: Subspace):
    from .algebras import Ideal
    return Ideal(base, space)


def functor_from_ringed_covering(c: Covering,
                                 rs: Optional[RingedStructure] = None) -> PosetFunctor:
    """R(zeta) = Phi(sum of the ideals named by zeta), restrictions through Phi.

    Runs functor validation and the ringed-structure naturality checks on
    the finite ideal lattice generated by the covering; a failure raises a
    StructureError carrying the witness square.
    """
    rs = rs or RingedStructure.default(c)
    n = c.n_patches
    sums = {zeta: c.ideal_sum_space(zeta)
            for length in range(n + 1) for zeta in all_tuples(n, length)}
    rings = {zeta: rs.ring_of(j) for zeta, j in sums.items()}
    steps = {}
    for length in range(n):
        for zeta in all_tuples(n, length):
            for i in range(1, n + 1):
                if i in zeta:
                    continue
                _, eta = insert_index(zeta, i)
                steps[(zeta, eta)] = rs.map_of(sums[zeta], sums[eta])
    functor = PosetFunctor(n, rings, steps)
    validate_functor(functor)
    rs.validate_on(sorted(set(sums.values()), key=lambda s: (s.dim, s.basis.entries)))
    return functor


# ---------------------------------------------------------------------------
# The Cech complex
# ---------------------------------------------------------------------------

class SpaceLayout(Frozen):
    """Block layout of S^n = (+)_(len(zeta)=n) R(zeta)."""

    _fields = ("degree", "blocks", "dim")

    def __init__(self, degree: int, blocks: tuple, dim: int):
        d = self.__dict__
        d["degree"] = degree
        d["blocks"] = blocks  # (zeta, offset, dim)
        d["dim"] = dim

    def offset_of(self, zeta: tuple) -> tuple[int, int]:
        for z, off, d in self.blocks:
            if z == zeta:
                return off, d
        raise KeyError(zeta)


def space_layout(f: PosetFunctor, n: int) -> SpaceLayout:
    blocks = []
    off = 0
    if 0 <= n <= f.n_patches:
        for zeta in all_tuples(f.n_patches, n):
            d = f.ring(zeta).dim
            blocks.append((zeta, off, d))
            off += d
    return SpaceLayout(n, tuple(blocks), off)


class CechComplex(Frozen):
    _fields = ("functor", "layouts", "differentials")

    def __init__(self, functor: PosetFunctor, layouts: tuple, differentials: tuple):
        d = self.__dict__
        d["functor"] = functor
        d["layouts"] = layouts  # SpaceLayout for S^0..S^N
        d["differentials"] = differentials  # d'_0..d'_(N-1)

    @property
    def n_patches(self) -> int:
        return self.functor.n_patches

    def dprime(self, n: int) -> Matrix:
        """d'_n : S^n -> S^(n+1); zero map beyond the stored range."""
        if 0 <= n < len(self.differentials):
            return self.differentials[n]
        field = self.functor.ring(()).field
        src = self.layouts[n].dim if n < len(self.layouts) else 0
        return Matrix(field, 0, src, ())


def build_cech(f: PosetFunctor, validate: bool = True) -> CechComplex:
    """Assemble (S^n, d') and assert d'.d' = 0.

    d' adds every index i not in zeta with sign (-1)^(position of i).
    """
    if validate:
        validate_functor(f)
    n = f.n_patches
    field = f.ring(()).field
    layouts = tuple(space_layout(f, k) for k in range(n + 1))
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
                pos, eta = insert_index(zeta, i)
                mat = f.step(zeta, eta).matrix
                if pos % 2 == 1:
                    mat = mat.neg()
                key = (dst_index[eta], ci)
                blocks[key] = blocks[key].add(mat) if key in blocks else mat
        diffs.append(block_matrix(field, row_dims, col_dims, blocks))
    cx = CechComplex(f, layouts, tuple(diffs))
    for k in range(n - 1):
        if not diffs[k + 1].mul(diffs[k]).is_zero():
            raise NotAComplexError(f"d'_{k + 1} . d'_{k} != 0", degree=k)
    return cx


def cech_cohomology(cx: CechComplex) -> list[int]:
    """Cohomology dimensions under the classical regrading.

    Degree-n cochains live on (n+1)-fold overlaps: H^n is the homology at
    S^(n+1), and S^0 = R(empty) is excluded, so H^0 is the full kernel of
    d' on S^1.  Trailing degrees whose cochain space is zero are trimmed.
    """
    top = 0
    for n in range(1, len(cx.layouts)):
        if cx.layouts[n].dim > 0:
            top = n
    ranks = [0] + [rank(cx.dprime(n)) for n in range(1, top + 1)]
    return [cx.layouts[n + 1].dim - ranks[n + 1] - ranks[n] for n in range(top)]


# ---------------------------------------------------------------------------
# The comparison map phi
# ---------------------------------------------------------------------------

class CechElement(Frozen):
    """An element of S^n with its block layout."""

    _fields = ("layout", "coords")

    def __init__(self, layout: SpaceLayout, coords: tuple):
        d = self.__dict__
        d["layout"] = layout
        d["coords"] = coords

    def component(self, zeta: Sequence[int], functor: PosetFunctor) -> Element:
        off, d = self.layout.offset_of(tuple(zeta))
        return functor.ring(zeta).element(self.coords[off:off + d])


def default_phi_choice(f: PosetFunctor, c: Covering) -> tuple:
    """Identity homs A_i -> R({i}) where the shapes agree (default ringed data)."""
    out = []
    for i in range(1, c.n_patches + 1):
        a_i, _ = c.patch(i)
        r_i = f.ring((i,))
        if a_i.dim != r_i.dim:
            raise DimensionMismatchError(
                f"no default choice: A_{i} has dim {a_i.dim}, R(({i},)) has dim {r_i.dim}")
        out.append(AlgebraHom(a_i, r_i, Matrix.identity(a_i.field, a_i.dim)))
    return tuple(out)


def phi_on_pure(f: PosetFunctor, choice: Sequence[AlgebraHom],
                factors: Sequence[tuple]) -> Optional[tuple]:
    """phi of one pure tensor given as [(patch, coords in A_patch), ...].

    Returns (zeta, coords in R(zeta)) for a strictly increasing patch word;
    None encodes zero (repeated or out-of-order word).
    """
    word = tuple(i for i, _ in factors)
    if len(set(word)) != len(word) or word != tuple(sorted(word)):
        return None
    zeta = word
    ring = f.ring(zeta)
    acc = ring.unit
    for (i, coords) in factors:
        mapped = f.restriction((i,), zeta).apply(choice[i - 1].apply(coords))
        acc = ring.multiply(acc, mapped)
    return zeta, acc


def phi(f: PosetFunctor, choice: Sequence[AlgebraHom],
        factors: Sequence[tuple]) -> CechElement:
    """phi of one pure tensor [(patch, coords in A_patch), ...] in S^n."""
    return phi_sum(f, choice, [(f.ring(()).field.one, factors)], degree=len(factors))


def phi_sum(f: PosetFunctor, choice: Sequence[AlgebraHom], terms,
            degree: Optional[int] = None) -> CechElement:
    """phi of a sum of (coefficient, pure tensor) pairs, as an element of S^n."""
    if degree is None:
        if not terms:
            raise ValueError("cannot infer degree from an empty sum")
        degree = len(terms[0][1])
    layout = space_layout(f, degree)
    field = f.ring(()).field
    coords = [field.zero] * layout.dim
    for coeff, factors in terms:
        if len(factors) != degree:
            raise DimensionMismatchError("mixed tensor lengths in one sum")
        res = phi_on_pure(f, choice, factors)
        if res is None:
            continue
        zeta, vec = res
        off, _ = layout.offset_of(zeta)
        for k, x in enumerate(vec):
            coords[off + k] = field.add(coords[off + k], field.mul(field.coerce(coeff), x))
    return CechElement(layout, tuple(coords))


def phi_raw_matrix(f: PosetFunctor, choice: Sequence[AlgebraHom],
                   tower: TensorTower, n: int) -> Matrix:
    """phi on the full k-tensor space k^(B^n) -> S^n, column per basis tensor."""
    field = tower.field
    bdim = tower.base.dim
    layout = space_layout(f, n)
    total = bdim ** n
    cols = []
    for idx in range(total):
        digits = []
        rem = idx
        for _ in range(n):
            digits.append(rem % bdim)
            rem //= bdim
        digits.reverse()
        factors = []
        for d in digits:
            block, local = tower.base.locate(d)
            coords = [field.zero] * block.dim
            coords[local] = field.one
            factors.append((block.word[0], tuple(coords)))
        res = phi_on_pure(f, choice, factors)
        col = [field.zero] * layout.dim
        if res is not None:
            zeta, vec = res
            off, _ = layout.offset_of(zeta)
            for k, x in enumerate(vec):
                col[off + k] = x
        cols.append(tuple(col))
    return Matrix.from_columns(field, cols) if cols else Matrix(field, layout.dim, 0, tuple(() for _ in range(layout.dim)))


def phi_matrix(f: PosetFunctor, choice: Sequence[AlgebraHom],
               tower: TensorTower, n: int) -> Matrix:
    """phi as a matrix on balanced coordinates T_n -> S^n."""
    return phi_raw_matrix(f, choice, tower, n).mul(tower.unflatten(n))


# ---------------------------------------------------------------------------
# Chain-map verification
# ---------------------------------------------------------------------------

class DegreeCheck(Frozen):
    _fields = ("degree", "ok", "witness")

    def __init__(self, degree: int, ok: bool, witness: Optional[str] = None):
        d = self.__dict__
        d["degree"] = degree
        d["ok"] = ok
        d["witness"] = witness


class ChainMapReport(Frozen):
    _fields = ("well_defined", "squares", "passed")

    def __init__(self, well_defined: tuple, squares: tuple, passed: bool):
        d = self.__dict__
        d["well_defined"] = well_defined
        d["squares"] = squares
        d["passed"] = passed

    def as_dict(self) -> dict:
        return {
            "well_defined": [
                {"degree": c.degree, "ok": c.ok, "witness": c.witness}
                for c in self.well_defined],
            "squares": [
                {"degree": c.degree, "ok": c.ok, "witness": c.witness}
                for c in self.squares],
            "passed": self.passed,
        }


def verify_chain_map(amitsur: AmitsurComplex, cx: CechComplex,
                     choice: Sequence[AlgebraHom]) -> ChainMapReport:
    """Check that phi is well defined and intertwines d and d'.

    For an increasing tuple zeta and i in zeta let g_i^zeta be
    rho_((i),zeta) . choice_i . pi_i : A -> R(zeta), a unital algebra hom.
    The balancing relations of B^((x)_A n) sit between adjacent factors,
    so phi is well defined in degree n exactly when g_i^zeta = g_j^zeta
    for consecutive i, j of every zeta of length n: 1 in the other factors
    gives necessity, multiplicativity gives sufficiency.  On the
    closed-form coordinates of ``amitsur`` (block w of C^(n-1) is A/I_set(w),
    see ``cechcover.amitsur``) block w of phi_n is g^w_(w_1) . s_w, with
    s_w the section of A -> A/I_set(w), when w is strictly increasing, and
    zero otherwise.  For n = 1..n_max the square
    d'_n . phi_n = phi_(n+1) . d_(n-1) is compared on these matrices and a
    failure names the first block and coordinate where the sides differ.
    Where phi is not well defined in degree n or n + 1 the square's verdict
    depends on the chosen sections, and its witness says so.
    The degrees of ``amitsur`` bound the check; no raw tensor space is built.
    """
    f = cx.functor
    c = amitsur.covering
    field = c.field
    homs = {(i, (i,)): choice[i - 1].matrix.mul(c.patch(i)[1].matrix)
            for i in range(1, c.n_patches + 1)}

    def g(i: int, zeta: tuple) -> Matrix:
        # restrict along the insertions in increasing order, as
        # PosetFunctor.restriction composes them
        m = homs.get((i, zeta))
        if m is None:
            last = max(x for x in zeta if x != i)
            prev = tuple(x for x in zeta if x != last)
            m = homs[(i, zeta)] = f.step(prev, zeta).matrix.mul(g(i, prev))
        return m

    well = []
    for n in range(1, amitsur.n_max + 2):
        bad = None
        for zeta in all_tuples(f.n_patches, n):
            for i, j in zip(zeta, zeta[1:]):
                if g(i, zeta) != g(j, zeta):
                    bad = (f"phi does not kill a balancing relation on the word "
                           f"{zeta}: g_{i} != g_{j}")
                    break
            if bad:
                break
        well.append(DegreeCheck(n, bad is None, bad))

    phis = {}
    for n in range(1, amitsur.n_max + 2):
        space = amitsur.spaces[n - 1]
        layout = space_layout(f, n)  # empty beyond the N-fold overlaps
        row_of = {zeta: r for r, (zeta, _, _) in enumerate(layout.blocks)}
        blocks = {}
        for col, (w, s) in enumerate(zip(space.words, space.sections)):
            row = row_of.get(w)  # the Cech blocks are the increasing words
            if row is not None:
                blocks[(row, col)] = g(w[0], w).mul(s)
        phis[n] = block_matrix(field, [d for _, _, d in layout.blocks], space.dims, blocks)

    squares = []
    for n in range(1, amitsur.n_max + 1):
        lhs = cx.dprime(n).mul(phis[n])
        rhs = phis[n + 1].mul(amitsur.differentials[n - 1])
        notes = []
        if lhs != rhs:
            col = next(k for k in range(lhs.cols) if lhs.column(k) != rhs.column(k))
            space = amitsur.spaces[n - 1]
            for w, d in zip(space.words, space.dims):
                if col < d:
                    break
                col -= d
            notes.append(f"square fails on coordinate {col} of the block {w}")
        # where phi is not well defined its blocks depend on the sections s_w,
        # and so does this verdict
        notes.extend(f"phi is not well defined in degree {k}"
                     for k in (n, n + 1) if not well[k - 1].ok)
        squares.append(DegreeCheck(n, lhs == rhs, "; ".join(notes) or None))

    passed = all(ch.ok for ch in well) and all(ch.ok for ch in squares)
    return ChainMapReport(tuple(well), tuple(squares), passed)
