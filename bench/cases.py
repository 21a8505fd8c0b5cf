"""Workloads: case lists, problem files and expected answers.

Each entry of a workload is run once over Q and once over F_1000003.
Probe cases run once over Q under a short time limit; at the seed commit
none of them finishes in time.  They count toward ``fail_share`` only and
mark where the tool stops answering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import expected as ex
import gen

FIELDS = ("Q", "Fp:1000003")

# Block coverings: "N=<patches>; <block>:<patches whose ideal contains it>; ..."
SHAPES = {
    "blk2": "N=2; k:; kx:1; k:2",
    "blk3": "N=3; k:; k:1,2; kx:3",
    "blk4": "N=4; k:1,2; k:3,4; kx:1,3",
    "blkv": "N=2; kx:1; T2:2",
    "k12": "N=3; " + "; ".join(["k:1"] * 4 + ["k:2"] * 4 + ["k:3"] * 4),
    "k16": "N=3; " + "; ".join(["k:1"] * 6 + ["k:2"] * 5 + ["k:3"] * 5),
    "m2t3": "N=3; M2:1,3; T3:2",
    "m3t3": "N=3; M3:1,3; T3:2",
    "k40": "N=3; " + "; ".join(["k:1"] * 14 + ["k:2"] * 13 + ["k:3"] * 13),
    # the worked instances are block coverings too (their files are fixed)
    "e1": "N=2; k:2; k:; k:1",
    "e4": "N=2; M2:1; k:2",
}

# Cover descriptions: disjoint unions of pieces, vertices relabelled.
COVERS = {
    "cover7": "sphere5+simplex2",
    "cover8": "cycle4+sphere4",
    "cover9": "sphere7+simplex2",
}

# (command, problem, n_max) per workload; the probe is (command, problem, n_max, limit_s).
WORKLOADS = {
    "amitsur-tower": {
        "entries": [("amitsur", "three_lines", 3), ("amitsur", "three_lines", 4),
                    ("amitsur", "e1", 5), ("amitsur", "e4", 3),
                    ("amitsur", "blk2", 3), ("amitsur", "blk3", 3), ("amitsur", "blk4", 3)],
        "probe": ("amitsur", "three_lines", 5, 2.0),
    },
    "cech-nerve": {
        "entries": [("cech", "const7", None), ("cech", "const8", None), ("cech", "const9", None),
                    ("oracle", "cover7", None), ("oracle", "cover8", None),
                    ("oracle", "cover9", None)],
        "probe": ("cech", "const11", None, 2.0),
    },
    "verify-chain": {
        "entries": [("verify", "e1", 2), ("verify", "e1", 3), ("verify", "e4", 2),
                    ("verify", "e4", 3), ("verify", "three_lines", 2),
                    ("verify", "blkv", 2)],
        "probe": ("verify", "three_lines", 4, 2.0),
    },
    "covering-check": {
        "entries": [("check", "k12", None), ("check", "k16", None),
                    ("check", "m2t3", None), ("check", "m3t3", None)],
        "probe": ("check", "k40", None, 2.0),
    },
}


@dataclass(frozen=True)
class Case:
    id: str
    command: str
    problem: str
    n_max: Optional[int]
    field: str
    probe: bool
    expected: dict
    limit_s: float

    @property
    def is_q(self) -> bool:
        return self.field == "Q"

    def argv(self, problem_path: Path, output_path: Path) -> list:
        out = [self.command, "--input", str(problem_path), "--format", "json",
               "--output", str(output_path), "--field-override", self.field]
        if self.n_max is not None:
            out += ["--n-max", str(self.n_max)]
        return out


def case_id(command: str, problem: str, n_max: Optional[int], field: str) -> str:
    at = f"@{n_max}" if n_max is not None else ""
    return f"{command}:{problem}{at}/{'Q' if field == 'Q' else 'Fp'}"


def build(workload: str, seed: int, workdir: Path, case_limit_s: float):
    """Write the workload's problem files; returns (timed cases, probe cases, paths)."""
    spec = WORKLOADS[workload]
    problems = {e[1] for e in spec["entries"]} | {spec["probe"][1]}
    paths, models = {}, {}
    for name in sorted(problems):
        rng = random.Random(f"{seed}:{name}")
        if name in gen.WORKED:
            doc = gen.WORKED[name]
            models[name] = gen.parse_shape(SHAPES[name]) if name in SHAPES else None
        elif name in SHAPES:
            models[name], doc = gen.seeded_covering(SHAPES[name], rng)
        elif name in COVERS:
            _, _, doc = gen.seeded_cover(COVERS[name], rng)
        elif name.startswith("const"):
            doc = gen.constant_doc(int(name[5:]))
        else:
            raise KeyError(name)
        path = workdir / f"{name}.json"
        path.write_bytes(gen.dump(doc))
        paths[name] = path

    def expect(command, name, n_max):
        if name == "three_lines":
            return ex.three_lines_expected(command, n_max)
        if name in COVERS:
            return ex.cover_expected(COVERS[name])
        if name.startswith("const"):
            return ex.constant_expected(int(name[5:]))
        return ex.block_expected(models[name], command, n_max or 3)

    timed = [Case(case_id(c, p, n, f), c, p, n, f, False, expect(c, p, n), case_limit_s)
             for (c, p, n) in spec["entries"] for f in FIELDS]
    c, p, n, limit = spec["probe"]
    probes = [Case(case_id(c, p, n, "Q"), c, p, n, "Q", True, expect(c, p, n), limit)]
    return timed, probes, paths
