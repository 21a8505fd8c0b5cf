"""Worked instances shared across the test suite.

E1: the split algebra k^3 covered by <e3> and <e1>; every derived number
here (patch dims, tau, tensor dims) was computed by hand and cross-checked
by independent row reduction before being frozen into tests.

E4: M_2(k) (+) k covered by the two factor ideals; the pair quotient is
the zero algebra.

``rescaled`` writes a problem file's document on a rescaled basis.
"""

from __future__ import annotations

from fractions import Fraction

from cechcover.algebras import ideal_closure
from cechcover.coverings import Covering
from cechcover.linalg import QQ
from cechcover.oracles import direct_sum, matrix_algebra, split_commutative, square_zero


def make_e1(field=QQ) -> Covering:
    a = split_commutative(field, 3)
    i1 = ideal_closure(a, [(0, 0, 1)])
    i2 = ideal_closure(a, [(1, 0, 0)])
    return Covering(a, [i1, i2])


def make_e4(field=QQ) -> Covering:
    a = direct_sum(matrix_algebra(field, 2), split_commutative(field, 1))
    m = ideal_closure(a, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                          (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    f = ideal_closure(a, [(0, 0, 0, 0, 1)])
    return Covering(a, [m, f])


def make_three_lines(field=QQ) -> Covering:
    """k.1 + span{x, y} with xy = 0, covered by <x>, <y>, <x+y>.

    A covering (the three lines meet only in 0) that is not complete:
    ker tau has dimension 4 while the image of pi has dimension 3.
    """
    a = square_zero(field, 2)
    ix = ideal_closure(a, [(0, 1, 0)])
    iy = ideal_closure(a, [(0, 0, 1)])
    id_ = ideal_closure(a, [(0, 1, 1)])
    return Covering(a, [ix, iy, id_])


def rescaled(doc: dict, scale: list) -> dict:
    """The same problem on the basis b'_k = scale[k] * b_k: a structure
    constant c_ij^k becomes scale[i] * scale[j] / scale[k] times c_ij^k,
    and the unit and every generator coordinate k is divided by scale[k]."""
    def coords(v):
        return [str(Fraction(x) / s) for x, s in zip(v, scale)]

    alg = doc["algebra"]
    return dict(doc, algebra=dict(alg, unit=coords(alg["unit"]), mul=[
        [i, j, k, str(Fraction(c) * scale[i] * scale[j] / scale[k])]
        for i, j, k, c in alg["mul"]]),
        ideals={name: [coords(v) for v in gens] for name, gens in doc["ideals"].items()})
