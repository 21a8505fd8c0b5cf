"""Every function the traced benchmark wraps by name still resolves.

``bench/spans.py`` looks its targets up in the modules that importing the
command line loads, so a renamed or moved target breaks the traced run.
Two targets are oracles in ``cechcover.oracles``, which the command line
does not import; ``amitsur`` and ``cech`` forward those two names.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import cechcover
import cechcover.cli  # noqa: F401  (loads the modules the tracer patches)

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
