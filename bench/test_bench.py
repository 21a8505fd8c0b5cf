"""Tests of the benchmark's generator, expected answers and failure accounting.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cases as cs
import expected as ex
import gen
import run as bench

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def build_files(workload, seed, d):
    d.mkdir()
    timed, probes, paths = cs.build(workload, seed, d, 30.0)
    return timed, probes, {name: p.read_bytes() for name, p in paths.items()}


@pytest.mark.parametrize("workload", sorted(cs.WORKLOADS))
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    a = build_files(workload, 7, tmp_path / "a")
    b = build_files(workload, 7, tmp_path / "b")
    assert a[2] == b[2]
    assert [c.expected for c in a[0]] == [c.expected for c in b[0]]


def test_seed_changes_presentation_not_size(tmp_path):
    seeded = [n for n in cs.SHAPES if n not in gen.WORKED] + list(cs.COVERS)
    for name in seeded:
        docs = []
        for seed in (1, 2):
            rng = random.Random(f"{seed}:{name}")
            if name in cs.COVERS:
                n, overlaps, doc = gen.seeded_cover(cs.COVERS[name], rng)
                docs.append((gen.dump(doc), (n, sorted(map(len, overlaps)))))
            else:
                cov, doc = gen.seeded_covering(cs.SHAPES[name], rng)
                sizes = sorted((b.dim, len(b.members)) for b in cov.blocks)
                docs.append((gen.dump(doc), sizes))
        assert docs[0][0] != docs[1][0], name
        assert docs[0][1] == docs[1][1], name


def structure(doc):
    alg = doc["algebra"]
    dim = alg["dim"]
    table = {}
    for i, j, k, c in alg["mul"]:
        table.setdefault((i, j), {})[k] = c
    return dim, table, alg["unit"]


def multiply(dim, table, x, y):
    out = [0] * dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in table.get((i, j), {}).items():
                    out[k] += xi * yj * c
    return out


@pytest.mark.parametrize("name", sorted(cs.SHAPES))
def test_generated_algebras_are_unital_and_associative(name):
    if name in gen.WORKED:
        doc = gen.WORKED[name]
    else:
        _, doc = gen.seeded_covering(cs.SHAPES[name], random.Random(f"3:{name}"))
    dim, table, unit = structure(doc)
    if dim > 20:
        pytest.skip("dense check too slow for the probe algebra")
    basis = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for e in basis:
        assert multiply(dim, table, unit, e) == e == multiply(dim, table, e, unit)
    for x in basis:
        for y in basis:
            xy = multiply(dim, table, x, y)
            for z in basis:
                assert (multiply(dim, table, xy, z)
                        == multiply(dim, table, x, multiply(dim, table, y, z)))


@pytest.mark.parametrize("name", sorted(cs.SHAPES))
def test_closed_form_degree_dims(name):
    cov = gen.parse_shape(cs.SHAPES[name])
    if cov.n_patches ** 4 * len(cov.blocks) > 5000:
        pytest.skip("word sum too long")
    words = ex.word_degree_dims(cov.n_patches, lambda s: ex.quotient_dim(cov, s), 3)
    closed = [sum(b.dim * (cov.n_patches - len(b.members)) ** (n + 1) for b in cov.blocks)
              for n in range(4)]
    assert words == closed


def test_worked_instances_reproduce_frozen_values():
    e1 = gen.parse_shape(cs.SHAPES["e1"])
    amitsur = ex.block_expected(e1, "amitsur", 3)
    assert amitsur["results.degree_dims"] == [4, 6, 10, 18]
    assert amitsur["results.homology_augmented"] == [0, 0, 0]
    assert amitsur["results.homology_unaugmented"] == [3, 0, 0]
    check = ex.block_expected(e1, "check", 3)
    assert check["results.patch_dims"] == [2, 2]
    assert check["results.tau_rank"] == 1
    assert check["results.covering"]["ker_tau_dim"] == 3
    assert ex.block_expected(e1, "verify", 2)["results.cech_cohomology"] == [3, 0]

    e4 = gen.parse_shape(cs.SHAPES["e4"])
    rep = ex.block_expected(e4, "check", 3)
    assert rep["results.covering"]["complete"] and rep["results.covering"]["ker_tau_dim"] == 5
    assert rep["results.pair_dims"] == [0]
    assert ex.block_expected(e4, "verify", 3)["results.cech_cohomology"] == [5]

    tl = ex.three_lines_expected("amitsur", 4)
    assert tl["results.degree_dims"] == [6, 12, 30, 84, 246]
    assert tl["results.homology_augmented"] == [1, 0, 0, 0]
    assert ex.three_lines_expected("check", 2)["results.covering"]["ker_tau_dim"] == 4


@pytest.mark.parametrize("name", sorted(cs.COVERS))
def test_cover_betti_numbers_match_elimination(name):
    for seed in range(3):
        _, overlaps, _ = gen.seeded_cover(cs.COVERS[name], random.Random(f"{seed}:{name}"))
        assert ex.betti_by_elimination(overlaps) == ex.cover_betti(cs.COVERS[name])


def test_mismatches_ignores_added_report_fields():
    report = {"results": {"degree_dims": [4, 6], "stats": {"new": 1}},
              "checks": {"d_squared_zero": True, "added_later": True}}
    assert ex.mismatches(report, {"results.degree_dims": [4, 6],
                                  "checks": {"d_squared_zero": True}}) == []
    assert ex.mismatches(report, {"results.degree_dims": [4, 7]}) == ["results.degree_dims"]
    assert ex.mismatches(report, {"checks": {"chain_map": True}}) == ["checks"]


# -- against the program ---------------------------------------------------------------------

CHEAP = {"amitsur-tower": ("amitsur:blk2@3", "amitsur:e4@3"),
         "cech-nerve": ("cech:const7", "oracle:cover7", "oracle:cover8"),
         "verify-chain": ("verify:e1@2", "verify:blkv@2"),
         "covering-check": ("check:m2t3",)}


@pytest.fixture(scope="module")
def cli_main():
    sys.path.insert(0, str(SRC))
    from cechcover.cli import main
    return main


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_expected_answers_match_program(workload, tmp_path, cli_main):
    timed, _, paths = cs.build(workload, 11, tmp_path, 30.0)
    picked = [c for c in timed if c.id.split("/")[0] in CHEAP[workload]]
    assert len(picked) == 2 * len(CHEAP[workload])
    for case in picked:
        out = tmp_path / "report.json"
        assert cli_main(case.argv(paths[case.problem], out)) == 0, case.id
        report = json.loads(out.read_text())
        assert ex.mismatches(report, case.expected) == [], case.id


def test_failures_are_counted_and_the_run_goes_on():
    run = bench.Run("verify-chain", 5, 1)
    try:
        good = next(c for c in run.timed if c.id == "verify:e1@2/Fp")
        slow = replace(run.probes[0], probe=False, limit_s=0.5)
        wrong = replace(good, id="wrong", expected={"results.cech_cohomology": [9]})
        bad_exit = replace(good, id="bad-exit", problem="missing")
        run.paths["missing"] = run.workdir / "missing.json"
        assert run.run_case(slow)[-1] is False
        assert run.run_case(wrong)[-1] is False
        assert run.run_case(bad_exit)[-1] is False
        assert run.run_case(good)[-1] is True
        assert run.failures == {slow.id: "timeout", "wrong": "wrong results.cech_cohomology",
                                "bad-exit": "exit 2"}
        assert (run.attempted, run.failed) == (4, 3)
        assert run.wrong == ["wrong", "bad-exit"]
    finally:
        run.close()


def test_probe_timeout_counts_only_in_fail_share():
    run = bench.Run("covering-check", 5, 1)
    try:
        probe = replace(run.probes[0], limit_s=0.3)
        assert run.run_case(probe)[-1] is False
        assert (run.attempted, run.failed, run.wrong) == (0, 0, [])
        assert run.fail_share() == 1 / (len(run.timed) + 1)
    finally:
        run.close()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "cech-nerve", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_record_lists_the_case_lists():
    record = json.loads((HERE / "record.json").read_text())
    for name, spec in cs.WORKLOADS.items():
        w = record["workloads"][name]
        assert w["cases"] == [cs.case_id(c, p, n, f) for (c, p, n) in spec["entries"]
                              for f in cs.FIELDS]
        c, p, n, limit = spec["probe"]
        assert w["probe"] == {"case": cs.case_id(c, p, n, "Q"), "limit_s": limit}
