"""The Amitsur complex of a covering in closed form.

Coordinates
-----------
Write B = (+)_i A_i for the patch sum of a covering, A_i = A/I_i.  For
two-sided ideals A/I (x)_A A/J = A/(I + J), so the Amitsur degree
C^n = B^((x)_A (n+1)) is the direct sum over patch words w in [N]^(n+1)
of A/I_set(w), where I_S is the sum of the I_i with i in S.  The class of
a in block w is pi_(w_1)(a) (x) 1 (x) ... (x) 1.  Blocks come in
lexicographic word order (the block order of the tensor tower); a word
whose quotient is zero has no coordinates and is left out, and so are its
extensions, whose quotients are smaller (``WordComplex``).  Block w uses
the coordinates of ``quotient_map`` of the RREF basis of I_set(w), so
words of length one carry the patch coordinates and pi = (+)_i pi_i is
the augmentation.

Inserting 1_B = sum_i 1_(A_i) at slot k sends block w to the blocks
w[:k] + (i,) + w[k:] by the canonical projections
A/I_S -> A/I_(S + {i}); the differential is the alternating sum
d = sum_k (-1)^k (insert 1_B at slot k), where insertions that land on the
same word add.  The builder asserts d.d = 0 and d_0 . pi = 0.  The
complex is a ``WordComplex`` (``cechcover.complexes``) on the patches
extended by every patch, like the Cech complex; pi, its rank, the blocks
A/I_set(w) and the projections between them come from the covering
(``Covering.complex``, ``word_dim``, ``word_block``), which computes each
once.

The balanced tensor tower, which builds the same spaces from the
definition, is a test oracle in ``cechcover.oracles``.
"""

from __future__ import annotations

from .complexes import WordComplex
from .coverings import Covering
from .errors import DEFAULT_DIM_CAP, DimensionCapError, NotAComplexError

# the word letters that assembling the differentials may write, per unit of
# the cap: at the default cap a one-patch covering runs up to n_max 667
LETTERS_PER_CAP = 5000


def __getattr__(name: str):
    # bench/spans.py wraps TensorTower methods by name; this forwarder goes
    # when the bench stops wrapping oracles (ROADMAP item 1)
    if name == "TensorTower":
        from .oracles import TensorTower
        return TensorTower
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Amitsur complex
# ---------------------------------------------------------------------------

class AmitsurComplex(WordComplex):
    """C^0..C^n_max, C^n on the words of length n+1, and d_0..d_(n_max-1)."""

    _fields = ("covering", "spaces", "differentials")

    def __init__(self, covering: Covering, n_max: int):
        patches = range(1, covering.n_patches + 1)

        def insertions(w: tuple):
            # inserting 1_B = sum_i 1_(A_i) at slot k, with sign (-1)^k
            for k in range(len(w) + 1):
                for i in patches:
                    yield -1 if k % 2 else 1, w[:k] + (i,) + w[k:]

        self.__dict__.update(covering=covering, n_max=n_max)
        super().__init__(covering.field, n_max, tuple((i,) for i in patches), lambda w: patches,
                         covering.word_dim, insertions, covering.word_block)


def build_amitsur(c: Covering, n_max: int, cap: int = DEFAULT_DIM_CAP) -> AmitsurComplex:
    """Amitsur complex C^n = (+)_(w in [N]^(n+1)) A/I_set(w) for n = 0..n_max.

    Raises DimensionCapError, before any matrix is built, when a degree
    has more than ``cap`` coordinates, or when assembling d writes more than
    ``LETTERS_PER_CAP * cap`` word letters: (n+2) * N insertions of length
    n+2 per word of C^n.  Asserts d.d = 0 between stored degrees and
    d_0 . pi = 0 for the augmentation.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cx = AmitsurComplex(c, n_max)
    letters, budget = 0, LETTERS_PER_CAP * cap
    for n in range(n_max + 1):
        space = cx.space(n)
        if space.dim > cap:
            raise DimensionCapError(
                f"Amitsur degree {n} (tensor power {n + 1}) has dimension "
                f"{space.dim} > cap {cap}", degree=n + 1, estimated=space.dim, cap=cap)
        if n < n_max:
            letters += len(space.words) * c.n_patches * (n + 2) ** 2
            if letters > budget:
                raise DimensionCapError(
                    f"Amitsur differentials d_0..d_{n} write {letters} word letters "
                    f"> {LETTERS_PER_CAP} x cap {cap}", degree=n, estimated=letters, cap=budget)
    failure = cx.first_nonzero_square()
    if failure is not None:
        n = failure[0]
        raise NotAComplexError(f"d_{n + 1} . d_{n} != 0", degree=n)
    if not cx.differentials[0].mul(c.pi).is_zero():
        raise NotAComplexError("d_0 . pi != 0", degree=-1)
    return cx


def amitsur_homology(cx: AmitsurComplex, augmented: bool) -> list[int]:
    """Homology dimensions at degrees 0..n_max-1.

    Degree 0 is taken against the augmentation pi when augmented, against
    the zero map otherwise.  The top stored degree has no outgoing
    differential and is not reported.  build_amitsur has already checked
    d.d = 0 and d_0 . pi = 0.
    """
    return cx.homology(0, cx.n_max, cx.covering.complex.rank(0) if augmented else 0)
