"""Seeded, stdlib-only generator of cechcover problem documents.

Every generated instance is a *block covering*: the algebra is a direct
sum of stock blocks (k, k[x]/x^2, M_n, T_n) and every ideal is a sum of
whole blocks.  A case fixes the shape (block types and which ideals
contain each block); the seed only changes the presentation: the order
of the blocks, a permutation of the global basis, the order of the
patches and the generators of each ideal.  So two seeds give different
files of the same size, and the expected answers follow from the shape
alone (see ``expected.py``).

Cover descriptions for the nerve oracle are disjoint unions of pieces
with known Betti numbers (full simplices, simplex boundaries, cycles),
with vertex labels permuted by the seed.

Nothing here imports cechcover: the generator must not change when the
code under test changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

# -- stock blocks -------------------------------------------------------------


def block_basis(kind: str, n: int) -> list:
    """Basis labels of one block; matrix units are (a, b) pairs."""
    if kind == "k":
        return [()]
    if kind == "kx":
        return [0, 1]  # 1, x
    if kind == "M":
        return [(a, b) for a in range(n) for b in range(n)]
    if kind == "T":
        return [(a, b) for a in range(n) for b in range(a, n)]
    raise ValueError(f"unknown block kind {kind!r}")


def block_products(kind: str, n: int):
    """Yield (i, j, k) local indices with b_i * b_j = b_k (all coefficients 1)."""
    basis = block_basis(kind, n)
    if kind == "k":
        yield 0, 0, 0
    elif kind == "kx":
        yield 0, 0, 0
        yield 0, 1, 1
        yield 1, 0, 1
    else:
        index = {u: i for i, u in enumerate(basis)}
        for i, (a, b) in enumerate(basis):
            for j, (c, d) in enumerate(basis):
                if b == c:
                    yield i, j, index[(a, d)]


def block_unit(kind: str, n: int) -> list:
    basis = block_basis(kind, n)
    if kind in ("k", "kx"):
        return [1] + [0] * (len(basis) - 1)
    return [1 if a == b else 0 for (a, b) in basis]


def block_generator(kind: str, n: int, rng: random.Random) -> list:
    """A random unit of the block: it generates the whole block as an ideal.

    c * 1 + (nilpotent part): for k[x]/x^2 the x coefficient, for T_n the
    strictly upper entries, for M_n one off-diagonal unit (M_n is simple).
    """
    basis = block_basis(kind, n)
    c = rng.choice((1, 2, 3, -1, -2))
    vec = [c * u for u in block_unit(kind, n)]
    if kind == "kx":
        vec[1] = rng.randint(-3, 3)
    elif kind == "T":
        for i, (a, b) in enumerate(basis):
            if a < b:
                vec[i] = rng.randint(-2, 2)
    elif kind == "M" and n > 1:
        off = [i for i, (a, b) in enumerate(basis) if a != b]
        vec[rng.choice(off)] = rng.randint(-2, 2)
    return vec


# -- block coverings ------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    kind: str
    n: int
    members: frozenset  # 1-based patches whose ideal contains this block

    @property
    def dim(self) -> int:
        return len(block_basis(self.kind, self.n))


@dataclass(frozen=True)
class BlockCovering:
    """Shape of a block covering after seeding: blocks in algebra order."""

    n_patches: int
    blocks: tuple


def parse_shape(shape: str) -> BlockCovering:
    """'N=3; kx:1,2; M2:3; T2:; k:1' -> blocks with their ideal memberships.

    Each block is ``<kind><n>:<patches>`` with kind in k, kx, M, T.
    """
    head, *parts = [p.strip() for p in shape.split(";")]
    if not head.startswith("N="):
        raise ValueError(f"shape must start with N=: {shape!r}")
    n_patches = int(head[2:])
    blocks = []
    for part in parts:
        spec, _, members = part.partition(":")
        if spec in ("k", "kx"):
            kind, n = spec, 1
        else:
            kind, n = spec[0], int(spec[1:])
        patches = frozenset(int(x) for x in members.split(",") if x)
        if not all(1 <= p <= n_patches for p in patches):
            raise ValueError(f"patch out of range in {part!r}")
        blocks.append(Block(kind, n, patches))
    return BlockCovering(n_patches, tuple(blocks))


def seeded_covering(shape: str, rng: random.Random):
    """Seed the presentation of a shape; returns (BlockCovering, problem doc)."""
    base = parse_shape(shape)
    order = list(base.blocks)
    rng.shuffle(order)
    relabel = list(range(1, base.n_patches + 1))
    rng.shuffle(relabel)
    blocks = tuple(Block(b.kind, b.n, frozenset(relabel[p - 1] for p in b.members))
                   for b in order)
    cov = BlockCovering(base.n_patches, blocks)

    dim = sum(b.dim for b in blocks)
    perm = list(range(dim))  # local position -> global basis index
    rng.shuffle(perm)
    offsets = []
    off = 0
    for b in blocks:
        offsets.append(off)
        off += b.dim

    mul = []
    unit = [0] * dim
    for b, o in zip(blocks, offsets):
        for i, j, k in block_products(b.kind, b.n):
            mul.append([perm[o + i], perm[o + j], perm[o + k], 1])
        for i, x in enumerate(block_unit(b.kind, b.n)):
            unit[perm[o + i]] = x
    mul.sort()

    ideals = {}
    for p in range(1, cov.n_patches + 1):
        gens = []
        for b, o in zip(blocks, offsets):
            if p in b.members:
                vec = [0] * dim
                for i, x in enumerate(block_generator(b.kind, b.n, rng)):
                    vec[perm[o + i]] = x
                gens.append(vec)
        ideals[f"I{p}"] = gens
    doc = {
        "field": "Q",
        "algebra": {"dim": dim, "mul": mul, "unit": unit},
        "ideals": ideals,
        "covering": [f"I{p}" for p in range(1, cov.n_patches + 1)],
        "functor": "ringed_default",
        "options": {"n_max": 3, "dim_cap": 20000},
    }
    return cov, doc


# -- constant functor --------------------------------------------------------------


def constant_doc(n: int) -> dict:
    """The constant functor k on n patches."""
    return {"field": "Q",
            "functor": {"constant": {"n": n, "ring": {"dim": 1, "mul": [[0, 0, 0, 1]],
                                                       "unit": [1]}}}}


# -- cover descriptions --------------------------------------------------------------


def piece_faces(kind: str, m: int) -> list:
    """Maximal faces of a piece on vertices 0..m-1."""
    verts = tuple(range(m))
    if kind == "simplex":
        return [verts]
    if kind == "sphere":  # boundary of the (m-1)-simplex
        return [tuple(c) for c in combinations(verts, m - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % m) for i in range(m)]
    raise ValueError(f"unknown piece {kind!r}")


def parse_pieces(spec: str) -> list:
    """'sphere5+cycle4+simplex1' -> [("sphere", 5), ("cycle", 4), ("simplex", 1)]."""
    out = []
    for part in spec.split("+"):
        kind = part.rstrip("0123456789")
        out.append((kind, int(part[len(kind):])))
    return out


def seeded_cover(spec: str, rng: random.Random):
    """Disjoint union of pieces, vertices relabelled by the seed.

    Returns (n_patches, sorted overlaps as tuples, problem doc).
    """
    pieces = parse_pieces(spec)
    n = sum(m for _, m in pieces)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    overlaps = set()
    base = 0
    for kind, m in pieces:
        for face in piece_faces(kind, m):
            mapped = sorted(labels[base + v] for v in face)
            for length in range(1, len(mapped) + 1):
                overlaps.update(combinations(mapped, length))
        base += m
    ordered = sorted(overlaps, key=lambda t: (len(t), t))
    doc = {"field": "Q",
           "functor": {"cover": {"n": n, "nonempty_overlaps": [list(t) for t in ordered]}}}
    return n, ordered, doc


# -- worked instances ------------------------------------------------------------------

# The repository's worked problem files, copied so that editing problems/
# cannot change the workload.  Their results are the hand-checked values
# frozen in the test suite.
WORKED = {
    "e1": {
        "field": "Q",
        "algebra": {"dim": 3, "mul": [[0, 0, 0, 1], [1, 1, 1, 1], [2, 2, 2, 1]],
                    "unit": [1, 1, 1]},
        "ideals": {"I1": [[0, 0, 1]], "I2": [[1, 0, 0]]},
        "covering": ["I1", "I2"],
        "functor": "ringed_default",
        "options": {"n_max": 3, "dim_cap": 20000},
    },
    "e4": {
        "field": "Q",
        "algebra": {"dim": 5,
                    "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 2, 0, 1], [1, 3, 1, 1],
                            [2, 0, 2, 1], [2, 1, 3, 1], [3, 2, 2, 1], [3, 3, 3, 1],
                            [4, 4, 4, 1]],
                    "unit": [1, 0, 0, 1, 1]},
        "ideals": {"M": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
                   "F": [[0, 0, 0, 0, 1]]},
        "covering": ["M", "F"],
        "functor": "ringed_default",
        "options": {"n_max": 3, "dim_cap": 20000},
    },
    "three_lines": {
        "field": "Q",
        "algebra": {"dim": 3,
                    "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [1, 0, 1, 1],
                            [2, 0, 2, 1]],
                    "unit": [1, 0, 0]},
        "ideals": {"X": [[0, 1, 0]], "Y": [[0, 0, 1]], "D": [[0, 1, 1]]},
        "covering": ["X", "Y", "D"],
        "functor": "ringed_default",
        "options": {"n_max": 2, "dim_cap": 20000},
    },
}


def dump(doc: dict) -> bytes:
    """Canonical bytes of a problem document (same doc, same bytes)."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
