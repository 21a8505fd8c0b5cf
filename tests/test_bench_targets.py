"""Every function the traced benchmark wraps by name still resolves.

``bench/spans.py`` looks its targets up in the modules that importing the
command line registers in ``sys.modules``; the package registers them on
import and a module is compiled when one of its attributes is first read,
which the tracer's lookups do.  So a renamed or moved target breaks the
traced run.
Two targets are oracles in ``cechcover.oracles``, which the command line
does not import; ``amitsur`` and ``cech`` forward those two names.  The
tracer also reads the complexes that ``build_amitsur`` and ``build_cech``
return, so their attributes are pinned here too.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import cechcover
import cechcover.cli  # noqa: F401  (registers the modules the tracer patches)
from cechcover.amitsur import build_amitsur
from cechcover.cech import build_cech
from cechcover.linalg import Matrix

from instances import make_three_lines

SPANS = Path(cechcover.__file__).resolve().parents[2] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    for modname, attr, _ in targets:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(owner, cls_name).__dict__[meth]), attr
        else:
            assert callable(getattr(owner, attr)), attr


def test_the_built_complexes_expose_what_the_tracer_reads():
    # Tracer.end_case sums degree_dims() and the differentials of every
    # build_amitsur result, and layout.dim over the layouts and the
    # differentials of every build_cech result
    c = make_three_lines()
    cx = build_amitsur(c, 2)
    assert sum(cx.degree_dims()) > 0
    assert len(cx.differentials) == 2
    assert all(isinstance(d, Matrix) for d in cx.differentials)
    ccx = build_cech(c)  # the call the command line makes on ringed_default
    assert sum(layout.dim for layout in ccx.layouts) > 0
    assert len(ccx.differentials) == c.n_patches
    assert all(isinstance(d, Matrix) for d in ccx.differentials)
