"""Exact Cech cohomology of algebra coverings.

Library layout:

- ``records``: ``Frozen``, the read-only base of every value type.
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

Importing the package registers each library module above, ``cli`` and
``oracles`` aside, in ``sys.modules`` and as an attribute of the package,
but compiles none of them: a module is compiled and run when one of its
attributes is first read (``importlib.util.LazyLoader``).  So a command
compiles only the modules it uses, and ``--version`` none of them.  The
package re-exports no names; import them from their modules, as in
``from cechcover.coverings import Covering``.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register(name: str):
    """The submodule ``name``, in ``sys.modules``, to be loaded on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


records = _register("records")
linalg = _register("linalg")
algebras = _register("algebras")
complexes = _register("complexes")
coverings = _register("coverings")
amitsur = _register("amitsur")
cech = _register("cech")
nerve = _register("nerve")
problem = _register("problem")
