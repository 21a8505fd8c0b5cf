"""Exact Cech cohomology of algebra coverings.

Library layout:

- ``linalg``: exact fields (Q, F_p), matrices, subspaces, quotients.
- ``algebras``: structure-constant algebras, ideals, homomorphisms.
- ``coverings``: coverings by ideals, their ideal-sum lattice, the
  completeness check.
- ``complexes``: the word-complex builder the two complexes share.
- ``amitsur``: balanced tensor powers, Sweedler coring, Amitsur complex.
- ``cech``: poset functors, the (S^n, d') complex, the comparison map phi.
- ``nerve``: classical nerve-cohomology oracle for cross-validation.
- ``problem``/``cli``: problem files, reports, command-line front end.
"""

from .linalg import GF, QQ, Matrix, Subspace
from .algebras import Algebra, AlgebraHom, Element, Ideal
from .coverings import Covering, CompletenessReport, completeness_check, is_covering
from .amitsur import AmitsurComplex, Bimodule, SweedlerCoring, TensorTower
from .cech import CechComplex, PosetFunctor, RingedStructure
from .nerve import CoverDescription

__version__ = "0.1.0"

__all__ = [
    "GF", "QQ", "Matrix", "Subspace",
    "Algebra", "AlgebraHom", "Element", "Ideal",
    "Covering", "CompletenessReport", "completeness_check", "is_covering",
    "AmitsurComplex", "Bimodule", "SweedlerCoring", "TensorTower",
    "CechComplex", "PosetFunctor", "RingedStructure",
    "CoverDescription",
    "__version__",
]
