"""Word complexes: the one complex type of the package.

A ``WordComplex`` is a block complex over words of patch indices.  Degree
n is a direct sum of blocks, one per word, and the differential inserts
one letter into a word with a sign given by the slot it lands in.
Insertions that land on the same target word add their signs, and the
block between a source word and a target word is a map that depends on
the two words only (``assemble``, the one block writer on the production
path, which also lays out the comparison map phi of ``cechcover.cech``).
Degree n + 1 extends each word of degree n by its letters and keeps the
words with a nonzero block.  That loses nothing: a word with a zero face
has a zero block, since A/I_S only shrinks as S grows and a unital map
out of the zero ring lands in the zero ring.  The Amitsur complex
(``cechcover.amitsur``) starts from the patches and extends by every
patch, with the projections A/I_S -> A/I_T as blocks.  A ``CechComplex``
starts from () and extends by the patches after the last letter, with a
functor's restrictions (``cechcover.cech``) or a covering's projections
(``cechcover.coverings``) as blocks, and inserts index i at its sorted
position pos with sign (-1)^pos.

Block (w, v) of d_(n+1) . d_n sums the signed paths w -> u -> v, so the
one d.d = 0 check, ``first_nonzero_square``, is also the check that the
squares of blocks commute, for the functors and the patch squares too.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, combinations
from typing import Callable, Iterable, Optional

from .errors import DimensionMismatchError, StructureError
from .linalg import Field, Matrix, rank
from .records import Frozen


class WordSpace(Frozen):
    """One degree: the block of word ``words[k]`` has dimension ``dims[k]``."""

    _fields = ("words", "dims")

    @cached_property
    def dim(self) -> int:
        return sum(self.dims)

    @cached_property
    def index(self) -> dict:
        """The block number of each word."""
        return {w: k for k, w in enumerate(self.words)}

    @cached_property
    def _starts(self) -> tuple:
        return tuple(accumulate(self.dims, initial=0))

    def offset_of(self, word: tuple) -> tuple[int, int]:
        """(first coordinate, dimension) of the block of ``word``."""
        k = self.index[word]
        return self._starts[k], self.dims[k]

    def word_at(self, coordinate: int) -> tuple:
        """The word whose block holds ``coordinate``."""
        return self.words[bisect_right(self._starts, coordinate) - 1]


def all_tuples(n_patches: int, length: int) -> list[tuple]:
    """The increasing words of the given length over 1..N, in lexicographic order."""
    return [tuple(c) for c in combinations(range(1, n_patches + 1), length)]


def extensions(zeta: tuple, n_patches: int):
    """The one-step inclusions out of the increasing tuple zeta: (i, pos,
    eta) for each i in 1..N not in zeta, in increasing order, where eta is
    zeta with i inserted at position pos."""
    pos = 0
    for i in range(1, n_patches + 1):
        if pos < len(zeta) and zeta[pos] == i:
            pos += 1
        else:
            yield i, pos, zeta[:pos] + (i,) + zeta[pos:]


def increasing_insertions(n_patches: int) -> Callable[[tuple], list]:
    """The insertion rule of ``assemble`` on the increasing words over
    1..N: (sign, eta) for each extension eta of zeta, with sign (-1)^pos
    for the position pos of the inserted index."""

    def insertions(zeta: tuple) -> list:
        return [(-1 if pos % 2 else 1, eta) for _, pos, eta in extensions(zeta, n_patches)]

    return insertions


def assemble(field: Field, src: WordSpace, dst: WordSpace,
             insertions: Callable[[tuple], Iterable[tuple[int, tuple]]],
             block: Callable[[tuple, tuple], Matrix]) -> Matrix:
    """The differential src -> dst.

    ``insertions(w)`` yields (sign, target word) for each letter inserted
    into the source word w; targets that ``dst`` does not hold are dropped.
    The signs are summed per target v, and block (v, w) of the result is
    that sum times ``block(w, v)``, written straight into the rows of the
    result.
    """
    p = field.characteristic
    index, targets, heights, starts = dst.index, dst.words, dst.dims, dst._starts
    out = tuple({} for _ in range(dst.dim))
    for col, (w, width, c0) in enumerate(zip(src.words, src.dims, src._starts)):
        signs: dict = {}
        for sign, v in insertions(w):
            row = index.get(v)
            if row is not None:
                signs[row] = signs.get(row, 0) + sign
        for row, x in signs.items():
            if p:
                x %= p
            if not x:
                continue
            m = block(w, targets[row])
            if m.rows != heights[row] or m.cols != width:
                raise DimensionMismatchError(
                    f"block ({row},{col}) has shape {m.rows}x{m.cols}")
            for r, brow in enumerate(m.nonzeros, starts[row]):
                if not brow:
                    continue
                if x == 1:
                    out[r].update({c0 + c: y for c, y in brow.items()} if c0 else brow)
                elif p:
                    out[r].update({c0 + c: y * x % p for c, y in brow.items()})
                elif x == -1:
                    out[r].update({c0 + c: -y for c, y in brow.items()})
                else:
                    out[r].update({c0 + c: y * x for c, y in brow.items()})
    return Matrix.from_nonzeros(field, len(out), src.dim, out)


class WordComplex(Frozen):
    """The complex of degrees 0..top over ``field``: degree n is the word
    space ``space(n)``, and d_n : space(n) -> space(n+1) is what ``assemble``
    builds from one insertion rule and one ``block`` map.  Degree 0 holds
    the words of ``first``, degree n + 1 each word w of degree n extended by
    each letter of ``letters(w)``, in that order, and a word is kept when
    ``dim`` of it is nonzero.  Each space, d_n and rank is built when first
    read, and kept; outside 0..top a space is empty and d_n a zero map.
    Each caller raises its own error for a ``first_nonzero_square``."""

    _fields = ("spaces", "differentials")

    def __init__(self, field: Field, top: int, first: Iterable[tuple],
                 letters: Callable[[tuple], Iterable[int]], dim: Callable[[tuple], int],
                 insertions: Callable[[tuple], Iterable[tuple[int, tuple]]],
                 block: Callable[[tuple, tuple], Matrix]):
        self.__dict__.update(field=field, top=top, block=block, _first=first, _letters=letters,
                             _dim=dim, _insertions=insertions, _spaces={}, _differentials={},
                             _ranks={}, _zero_below=0)

    def space(self, n: int) -> WordSpace:
        if n not in self._spaces:
            if not 0 <= n <= self.top:
                words = ()
            elif n:
                words = [w + (i,) for w in self.space(n - 1).words for i in self._letters(w)]
            else:
                words = self._first
            kept = [(w, d) for w in words if (d := self._dim(w))]
            self._spaces[n] = WordSpace(tuple(w for w, _ in kept), tuple(d for _, d in kept))
        return self._spaces[n]

    def differential(self, n: int) -> Matrix:
        if n not in self._differentials:
            self._differentials[n] = assemble(self.field, self.space(n), self.space(n + 1),
                                              self._insertions, self.block)
        return self._differentials[n]

    @property
    def spaces(self) -> tuple:
        return tuple(map(self.space, range(self.top + 1)))

    @property
    def differentials(self) -> tuple:
        return tuple(map(self.differential, range(self.top)))

    def degree_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)

    def rank(self, n: int) -> int:
        """rank d_n; 0 outside degrees 0..top-1."""
        if n not in self._ranks:
            self._ranks[n] = rank(self.differential(n)) if 0 <= n < self.top else 0
        return self._ranks[n]

    def homology(self, lo: int, hi: int, below: int) -> list[int]:
        """dim space(n) - rank d_n - rank d_(n-1) for each degree
        lo <= n < hi, where ``below`` stands in for rank d_(lo-1)."""
        return [self.space(n).dim - self.rank(n) - (self.rank(n - 1) if n > lo else below)
                for n in range(lo, hi)]

    def first_nonzero_square(self, stop: Optional[int] = None) -> Optional[tuple]:
        """(n, w, v) for the first n < stop (top - 1 by default) with
        d_(n+1) . d_n != 0, where (w, v) is the first nonzero block of that
        product, by source word w, then target word v; None when those
        squares are zero.  Every space, then every differential, that they
        read is built first; a square found zero is not checked again."""
        stop = self.top - 1 if stop is None else stop
        spaces = [self.space(n) for n in range(stop + 2)]
        diffs = [self.differential(n) for n in range(stop + 1)]
        for n in range(self._zero_below, stop):
            product = diffs[n + 1].mul(diffs[n])
            if not product.is_zero():
                w = spaces[n].word_at(min(min(row) for row in product.nonzeros if row))
                lo, d = spaces[n].offset_of(w)
                r = next(r for r, row in enumerate(product.nonzeros)
                         if any(lo <= c < lo + d for c in row))
                return n, w, spaces[n + 2].word_at(r)
            self.__dict__["_zero_below"] = n + 1  # squares 0..n are zero
        return None


class CechComplex(WordComplex):
    """S^n = (+)_(len(zeta)=n) R(zeta) for n = 0..N on the increasing
    words over 1..N with R(zeta) nonzero, dim R(zeta) = ``dim(zeta)``, and
    the restriction ``block(zeta, eta)`` of each one-step inclusion."""

    def __init__(self, field: Field, n_patches: int, dim: Callable[[tuple], int],
                 block: Callable[[tuple, tuple], Matrix]):
        self.__dict__["n_patches"] = n_patches
        super().__init__(field, n_patches, ((),),
                         lambda zeta: range(zeta[-1] + 1 if zeta else 1, n_patches + 1),
                         dim, increasing_insertions(n_patches), block)

    @property
    def layouts(self) -> tuple:
        # the name bench/spans.py reads; the alias goes with ROADMAP item 1
        return self.spaces

    def check_squares(self) -> None:
        """Raise StructureError unless every square of blocks commutes, that
        is d'.d' = 0: block (zeta, top) of d'.d' is +-(path via i - path
        via j) for {i, j} = top - zeta."""
        failure = self.first_nonzero_square()
        if failure is not None:
            _, zeta, top = failure
            i, j = (x for x in top if x not in zeta)
            raise StructureError(f"restriction square {zeta} -> {top} does not commute",
                                 witness=("square", zeta, i, j))
