"""A functor with many patches stops with exit 3 before any ring is built.

The Cech complex of a functor on n patches has C(n, k) index tuples in
degree k, so ``dim_cap`` bounds the widest degree, C(n, n // 2), before
the functor's 2^n rings are built.  Without the bound n = 24 ends in a
MemoryError traceback under the 1 GiB address space allowed here.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cechcover
from cechcover.errors import DimensionCapError
from cechcover.problem import build_problem_functor, parse_problem

K = {"dim": 1, "mul": [[0, 0, 0, 1]], "unit": [1]}


def constant(n):
    return {"field": "Q", "functor": {"constant": {"n": n, "ring": K}}}


def cover(n):
    return {"field": "Q", "functor": {"cover": {
        "n": n, "nonempty_overlaps": [[i] for i in range(1, n + 1)]}}}


def run_limited(tmp_path, command, doc):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(cechcover.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", "import sys\nfrom cechcover.cli import main\nsys.exit(main())",
         command, "--input", str(path)],
        env=env, preexec_fn=limit_memory, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("command, doc", [("cech", constant(24)), ("oracle", cover(24))])
def test_wide_functor_exits_3_without_a_traceback(tmp_path, command, doc):
    proc = run_limited(tmp_path, command, doc)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("resource cap: the functor on 24 patches ")


def test_the_cap_is_the_widest_degree():
    # C(7, 3) = 35 fits a cap of 35; for n = 8, C(8, 2) = 28 does and
    # C(8, 3) = 56 does not
    def build(n):
        return build_problem_functor(parse_problem(dict(constant(n), options={"dim_cap": 35})))

    assert build(7)[0].n_patches == 7
    with pytest.raises(DimensionCapError) as info:
        build(8)
    assert (info.value.degree, info.value.estimated, info.value.cap) == (3, 56, 35)


def test_a_huge_patch_count_is_rejected_at_once():
    # the count stops at the first degree past the cap: C(10^12, 1) > 20000
    doc = {"field": "Q", "functor": {"cover": {"n": 10 ** 12, "nonempty_overlaps": []}}}
    with pytest.raises(DimensionCapError) as info:
        build_problem_functor(parse_problem(doc))
    assert (info.value.degree, info.value.estimated) == (1, 10 ** 12)
