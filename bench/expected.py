"""Expected answers, derived without the code under test.

Block coverings: every ideal is a sum of whole blocks, so A/I_S is the sum
of the blocks outside every ideal named by S and
``degree_dims[n] = sum over words w in [N]^(n+1) of dim A/I_set(w)``.
Per block b with P_b = {patches whose ideal misses b}, the Amitsur and
Cech complexes are the cochains of a simplex on P_b, so the augmented
Amitsur homology vanishes and the Cech cohomology is concentrated in
degree 0.

three_lines is not a block covering; its values are the hand-checked ones
frozen in the test suite.  Cover descriptions are disjoint unions of
pieces whose Betti numbers are known.
"""

from __future__ import annotations

from itertools import combinations, product

from gen import BlockCovering, parse_pieces, piece_faces


# -- block coverings -------------------------------------------------------------


def quotient_dim(cov: BlockCovering, patches) -> int:
    """dim A / (sum of the ideals named by ``patches``)."""
    s = set(patches)
    return sum(b.dim for b in cov.blocks if not (b.members & s))


def word_degree_dims(n_patches: int, qdim, n_max: int) -> list:
    return [sum(qdim(set(w)) for w in product(range(1, n_patches + 1), repeat=n + 1))
            for n in range(n_max + 1)]


def block_covering_report(cov: BlockCovering) -> dict:
    n = cov.n_patches
    dim_a = sum(b.dim for b in cov.blocks)
    inter = sum(b.dim for b in cov.blocks if len(b.members) == n)
    covering = inter == 0
    # ker tau is the diagonal copy of every block some patch keeps = im pi
    kept = dim_a - inter
    return {
        "is_covering": covering,
        "intersection_dim": inter,
        "exact_at_A": covering,
        "exact_at_B": True,
        "ker_tau_dim": kept,
        "im_pi_dim": kept,
        "complete": covering,
    }


def block_expected(cov: BlockCovering, command: str, n_max: int) -> dict:
    """Expected report fields (dotted paths) for a block covering."""
    n = cov.n_patches
    report = block_covering_report(cov)
    out = {"results.covering": report}
    if command == "check":
        patch = [quotient_dim(cov, {i}) for i in range(1, n + 1)]
        out["results.patch_dims"] = patch
        out["results.pair_dims"] = [quotient_dim(cov, {i, j})
                                    for i, j in combinations(range(1, n + 1), 2)]
        out["results.tau_rank"] = sum(patch) - report["ker_tau_dim"]
        return out
    dims = word_degree_dims(n, lambda s: quotient_dim(cov, s), n_max)
    if command == "amitsur":
        out["results.degree_dims"] = dims
        out["results.homology_augmented"] = [0] * n_max
        out["results.homology_unaugmented"] = [report["im_pi_dim"]] + [0] * (n_max - 1)
        out["checks"] = {"d_squared_zero": True, "augmentation_chain": True}
        return out
    if command == "verify":
        top = max(n - len(b.members) for b in cov.blocks)
        out["results.degree_dims"] = dims[:n_max + 1]
        out["results.homology_augmented"] = [0] * n_max
        out["results.functor"] = "ringed_default"
        out["results.cech_cohomology"] = [report["ker_tau_dim"]] + [0] * (top - 1)
        out["results.chain_map.passed"] = True
        out["checks"] = {"chain_map": True, "d_squared_zero": True,
                         "dprime_squared_zero": True, "functor_validation": True}
        return out
    raise ValueError(f"no block-covering expectation for {command!r}")


# -- three_lines ---------------------------------------------------------------------

# k.1 + span{x, y}, xy = 0, covered by <x>, <y>, <x+y>: A/I_S has dim 2 for
# one ideal and dim 1 for two or more (any two lines span the radical).
THREE_LINES_REPORT = {
    "is_covering": True, "intersection_dim": 0, "exact_at_A": True,
    "exact_at_B": False, "ker_tau_dim": 4, "im_pi_dim": 3, "complete": False,
}


def three_lines_expected(command: str, n_max: int) -> dict:
    out = {"results.covering": THREE_LINES_REPORT}
    if command == "check":
        out["results.patch_dims"] = [2, 2, 2]
        out["results.pair_dims"] = [1, 1, 1]
        out["results.tau_rank"] = 2
        return out
    dims = word_degree_dims(3, lambda s: 2 if len(s) == 1 else 1, n_max)
    out["results.degree_dims"] = dims
    out["results.homology_augmented"] = [1] + [0] * (n_max - 1)
    if command == "amitsur":
        out["results.homology_unaugmented"] = [4] + [0] * (n_max - 1)
        out["checks"] = {"d_squared_zero": True, "augmentation_chain": True}
        return out
    if command == "verify":
        out["results.functor"] = "ringed_default"
        out["results.cech_cohomology"] = [4, 0, 0]
        out["results.chain_map.passed"] = True
        out["checks"] = {"chain_map": True, "d_squared_zero": True,
                         "dprime_squared_zero": True, "functor_validation": True}
        return out
    raise ValueError(f"no three_lines expectation for {command!r}")


# -- constant functor and cover descriptions ----------------------------------------------


def constant_expected(n: int) -> dict:
    keys = [",".join(str(i) for i in t)
            for length in range(n + 1) for t in combinations(range(1, n + 1), length)]
    return {
        "results.functor": "constant",
        "results.cech_cohomology": [1] + [0] * (n - 1),
        "results.ring_dims": {k: 1 for k in keys},
        "checks": {"functor_validation": True, "dprime_squared_zero": True},
    }


def piece_betti(kind: str, m: int) -> dict:
    """Betti numbers {degree: dim} of one piece on m vertices."""
    if kind == "simplex":
        return {0: 1}
    if kind == "sphere" and m >= 3:
        return {0: 1, m - 2: 1}
    if kind == "cycle" and m >= 3:
        return {0: 1, 1: 1}
    raise ValueError(f"no Betti numbers for {kind}{m}")


def cover_betti(spec: str) -> list:
    """Nerve cohomology of a disjoint union, degrees 0..top simplex dim."""
    pieces = parse_pieces(spec)
    top = max(max(len(f) for f in piece_faces(k, m)) for k, m in pieces) - 1
    out = [0] * (top + 1)
    for kind, m in pieces:
        for deg, b in piece_betti(kind, m).items():
            out[deg] += b
    return out


def cover_expected(spec: str) -> dict:
    betti = cover_betti(spec)
    return {
        "results.functor": "cover",
        "results.nerve_cohomology": betti,
        "results.cech_cohomology": betti,
        "checks": {"oracle_match": True},
    }


def betti_by_elimination(overlaps, p: int = 1000003) -> list:
    """Independent count: simplicial Betti numbers by rank mod p.

    Used by the tests to confirm ``cover_betti`` on generated covers.
    """
    simplices = {}
    for t in overlaps:
        simplices.setdefault(len(t) - 1, []).append(tuple(t))
    top = max(simplices)
    ranks = {}
    for d in range(1, top + 1):
        index = {s: i for i, s in enumerate(sorted(simplices[d - 1]))}
        rows = []
        for s in sorted(simplices[d]):
            row = {}
            for k in range(len(s)):
                row[index[s[:k] + s[k + 1:]]] = 1 if k % 2 == 0 else p - 1
            rows.append(row)
        ranks[d] = _rank_mod_p(rows, p)
    return [len(simplices[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(top + 1)]


def _rank_mod_p(rows: list, p: int) -> int:
    """Rank of sparse rows {col: value} over F_p."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivots[col].items():
                x = (row.get(c, 0) - factor * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


# -- comparison -----------------------------------------------------------------------------


def mismatches(report: dict, expected: dict) -> list:
    """Dotted paths whose report value differs from the expected one.

    ``checks`` compares only the listed keys, so fields added to reports
    later do not turn into failures.
    """
    bad = []
    for path, want in expected.items():
        node = report
        for key in path.split("."):
            node = node.get(key) if isinstance(node, dict) else None
        if path == "checks":
            node = {k: (node or {}).get(k) for k in want}
        if node != want:
            bad.append(path)
    return bad
