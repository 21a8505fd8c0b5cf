"""Exact Cech cohomology of algebra coverings.

Library layout:

- ``linalg``: exact fields (Q, F_p), matrices, subspaces, quotients.
- ``algebras``: structure-constant algebras, ideals, homomorphisms.
- ``coverings``: coverings by ideals, their ideal-sum lattice, the
  completeness check.
- ``complexes``: ``WordComplex``, the one complex type, built degree by
  degree with its ranks stored: the Amitsur and the Cech complex.
- ``amitsur``: the Amitsur complex in closed form.
- ``cech``: poset functors, the (S^n, d') complex, the chain-map check.
- ``nerve``: classical nerve-cohomology oracle for cross-validation.
- ``problem``/``cli``: problem files, reports, command-line front end.
- ``oracles``: literal-definition test oracles (balanced tensor tower,
  Sweedler coring, phi on pure tensors), random instances, the stock
  algebras, elements, ringed structures, and the helpers that only they
  and the tests call; no command imports it.
"""

from .linalg import GF, QQ, Matrix, Subspace
from .algebras import Algebra, AlgebraHom, Ideal
from .coverings import Covering, CompletenessReport, completeness_check, is_covering
from .amitsur import AmitsurComplex
from .cech import CechComplex, PosetFunctor
from .nerve import CoverDescription

__version__ = "0.1.0"

__all__ = [
    "GF", "QQ", "Matrix", "Subspace",
    "Algebra", "AlgebraHom", "Ideal",
    "Covering", "CompletenessReport", "completeness_check", "is_covering",
    "AmitsurComplex",
    "CechComplex", "PosetFunctor",
    "CoverDescription",
    "__version__",
]
