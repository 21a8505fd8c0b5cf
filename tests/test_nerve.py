from __future__ import annotations

import random

import pytest

from cechcover.cech import build_cech, cech_cohomology, validate_functor
from cechcover.errors import StructureError
from cechcover.linalg import GF, QQ
from cechcover.nerve import CoverDescription, functor_from_cover, nerve_cohomology
from cechcover.oracles import random_cover_description


def cover(n, overlaps, field=QQ):
    return CoverDescription(n, frozenset(tuple(t) for t in overlaps), field)


FULL3 = [[1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]
CIRCLE = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]


def test_full_simplex_is_contractible():
    assert nerve_cohomology(cover(3, FULL3)) == [1, 0, 0]


def test_circle_nerve():
    assert nerve_cohomology(cover(3, CIRCLE)) == [1, 1]


def test_disjoint_pair():
    assert nerve_cohomology(cover(2, [[1], [2]])) == [2]


def test_downward_closure_violation_rejected():
    with pytest.raises(StructureError) as err:
        cover(3, [[1], [2], [3], [1, 2, 3]])
    assert err.value.witness[0] == "closure"


def test_missing_singleton_rejected():
    with pytest.raises(StructureError) as err:
        cover(3, [[1], [2], [1, 2]])
    assert err.value.witness[0] == "singleton"


def test_functor_from_cover_structure():
    f = functor_from_cover(cover(3, CIRCLE))
    validate_functor(f)
    assert f.ring((1, 2)).dim == 1
    assert f.ring((1, 2, 3)).dim == 0


def test_cover_functor_cech_matches_nerve():
    for overlaps, n in ((FULL3, 3), (CIRCLE, 3), ([[1], [2]], 2)):
        cd = cover(n, overlaps)
        assert cech_cohomology(build_cech(functor_from_cover(cd))) == nerve_cohomology(cd)


def test_two_circles_wedge_like_cover():
    # two triangles sharing the vertex 3: b_0 = 1, b_1 = 2
    overlaps = [[1], [2], [3], [4], [5],
                [1, 2], [1, 3], [2, 3],
                [3, 4], [3, 5], [4, 5]]
    cd = cover(5, overlaps)
    dims = nerve_cohomology(cd)
    assert dims == [1, 2]
    assert cech_cohomology(build_cech(functor_from_cover(cd))) == dims


def test_random_covers_agree_small():
    rng = random.Random(61)
    for _ in range(10):
        cd = random_cover_description(rng, max_patches=5)
        assert cech_cohomology(build_cech(functor_from_cover(cd))) == nerve_cohomology(cd)


def test_cover_over_f2():
    cd = cover(3, CIRCLE, field=GF(2))
    assert nerve_cohomology(cd) == [1, 1]
    assert cech_cohomology(build_cech(functor_from_cover(cd))) == [1, 1]
