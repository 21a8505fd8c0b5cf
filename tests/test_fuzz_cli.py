"""Seeded fuzzing of the command line on mutated problem files.

Each document is a problem from ``problems/`` with one to three mutations:
a value replaced from a fixed list, a key or an element deleted, an element
appended to a list, or an integer bumped by one.  Every run must end in
one of the documented exit codes, with no exception escaping ``main``.
The values are small, so no mutation asks for a large algebra; the
resource caps on large inputs are tested in a process of their own
(``tests/test_cli.py``).
"""

from __future__ import annotations

import copy
import json
import random
from functools import reduce
from operator import getitem

import pytest

from cechcover.cli import main

COMMANDS = ("check", "cech", "amitsur", "verify", "oracle")
VALUES = (0, 1, 2, -1, "1/2", "0/1", "x", "", "1,2", "1->1,2", True, None, [], {}, [0],
          [[0, 0, 0, 1]], "Q", {"Fp": 5}, "ringed_default")
DOCUMENTS_PER_SEED = 150


def _paths(node, path=()):
    """The path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(rng: random.Random, doc):
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            return doc
        *head, key = rng.choice(paths)
        parent = reduce(getitem, head, doc)
        value = parent[key]
        op = rng.randrange(4)
        if op == 1:
            del parent[key]
        elif op == 2 and isinstance(value, list):
            value.append(copy.deepcopy(rng.choice(VALUES)))
        elif op == 3 and isinstance(value, int) and not isinstance(value, bool):
            parent[key] = value + 1
        else:
            parent[key] = copy.deepcopy(rng.choice(VALUES))
    return doc


@pytest.mark.parametrize("seed", (1, 2))
def test_mutated_problems_end_in_a_documented_exit_code(tmp_path, capsys, problems_dir, seed):
    rng = random.Random(seed)
    sources = [json.loads(p.read_text()) for p in sorted(problems_dir.glob("*.json"))]
    path, out = tmp_path / "fuzz.json", tmp_path / "report.txt"
    codes = []
    for k in range(DOCUMENTS_PER_SEED):
        doc = _mutate(rng, copy.deepcopy(rng.choice(sources)))
        path.write_text(json.dumps(doc))
        command = rng.choice(COMMANDS)
        code = main([command, "--input", str(path), "--output", str(out),
                     "--n-max", "2", "--dim-cap", "500"])
        assert code in (0, 1, 2, 3), (k, command, doc)
        codes.append(code)
        capsys.readouterr()
    assert 2 in codes and 0 in codes
