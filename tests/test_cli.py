from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cechcover
from cechcover.amitsur import LETTERS_PER_CAP
from cechcover.cli import main
from cechcover.oracles import mul_table
from cechcover.problem import (
    MAX_ALGEBRA_CELLS, MAX_NESTING, load_problem, normalize, parse_problem, sha256_hex,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, command, path, *extra):
    code, out, err = run(capsys, command, "--input", str(path), "--format", "json", *extra)
    report = json.loads(out) if out else None
    return code, report, err


def test_check_e1(capsys, problems_dir):
    code, report, _ = run_json(capsys, "check", problems_dir / "e1_split_three_points.json")
    assert code == 0
    cov = report["results"]["covering"]
    assert cov["complete"] is True
    assert cov["ker_tau_dim"] == 3
    assert report["results"]["tau_rank"] == 1
    assert report["results"]["patch_dims"] == [2, 2]


def test_check_incomplete_covering_still_exits_zero(capsys, problems_dir):
    code, report, _ = run_json(capsys, "check", problems_dir / "incomplete_three_lines.json")
    assert code == 0
    cov = report["results"]["covering"]
    assert cov["is_covering"] is True and cov["complete"] is False
    assert cov["ker_tau_dim"] == 4 and cov["im_pi_dim"] == 3


def test_check_duplicate_ideals(capsys, tmp_path):
    doc = {
        "field": "Q",
        "algebra": {"dim": 2, "mul": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1]},
        "ideals": {"I": [[0, 1]]},
        "covering": ["I", "I"],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "check", path)
    assert code == 0
    assert report["results"]["covering"]["is_covering"] is False


def test_malformed_structure_constants_exit_2(capsys, tmp_path):
    doc = {
        "field": "Q",
        "algebra": {"dim": 2, "mul": [[0, 0, 1, 1]], "unit": [1, 0]},
        "ideals": {},
        "covering": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert "unit law" in err or "associativity" in err


def test_unknown_ideal_name_exit_2(capsys, tmp_path):
    doc = {
        "field": "Q",
        "algebra": {"dim": 1, "mul": [[0, 0, 0, 1]], "unit": [1]},
        "ideals": {},
        "covering": ["nope"],
    }
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2 and "nope" in err


def test_cech_e1(capsys, problems_dir):
    code, report, _ = run_json(capsys, "cech", problems_dir / "e1_split_three_points.json")
    assert code == 0
    assert report["results"]["cech_cohomology"] == [3, 0]
    assert report["checks"]["dprime_squared_zero"] is True


def test_cech_constant_functor(capsys, problems_dir):
    code, report, _ = run_json(capsys, "cech", problems_dir / "constant_three_patches.json")
    assert code == 0
    assert report["results"]["cech_cohomology"] == [1, 0, 0]


def test_amitsur_e1(capsys, problems_dir):
    code, report, _ = run_json(capsys, "amitsur", problems_dir / "e1_split_three_points.json")
    assert code == 0
    assert report["results"]["degree_dims"] == [4, 6, 10, 18]
    assert report["results"]["homology_augmented"] == [0, 0, 0]
    assert report["results"]["homology_unaugmented"] == [3, 0, 0]


def test_amitsur_cap_exit_3(capsys, problems_dir):
    code, out, err = run(capsys, "amitsur", "--input",
                         str(problems_dir / "e1_split_three_points.json"),
                         "--dim-cap", "5")
    assert code == 3
    assert "cap" in err


def test_verify_e1(capsys, problems_dir):
    code, report, _ = run_json(capsys, "verify", problems_dir / "e1_split_three_points.json",
                               "--n-max", "2")
    assert code == 0
    checks = report["checks"]
    assert checks["d_squared_zero"] and checks["dprime_squared_zero"]
    assert checks["functor_validation"] and checks["chain_map"]


def test_verify_e4(capsys, problems_dir):
    code, report, _ = run_json(capsys, "verify", problems_dir / "e4_matrix_plus_point.json",
                               "--n-max", "2")
    assert code == 0
    assert report["checks"]["chain_map"] is True


def test_verify_broken_explicit_functor_exit_1(capsys, tmp_path):
    # all rings are the split plane; one edge uses the swap automorphism,
    # so the square () -> (1,2) does not commute
    plane = {"dim": 2, "mul": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1]}
    ident = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    doc = {
        "field": "Q",
        "algebra": plane,
        "ideals": {"Z": []},
        "covering": ["Z"],
        "functor": {"explicit": {
            "n": 2,
            "rings": {"": plane, "1": plane, "2": plane, "1,2": plane},
            "restrictions": {
                "->1": ident, "->2": ident,
                "1->1,2": swap, "2->1,2": ident,
            },
        }},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "verify", path)
    assert code == 1
    assert report["checks"]["functor_validation"] is False
    assert "square" in report["results"]["functor_witness"]

    code2, report2, _ = run_json(capsys, "cech", path)
    assert code2 == 1
    assert report2["checks"]["functor_validation"] is False

    # oracle needs a cover functor; that input error comes before validation
    code3, _, err = run(capsys, "oracle", "--input", str(path))
    assert code3 == 2 and "cover" in err


def test_verify_three_lines_n_max_4_finishes(capsys, problems_dir):
    # the chain-map check once walked the raw space of dimension 6^5 here
    # and did not finish in 180 s
    started = time.perf_counter()
    code, report, _ = run_json(capsys, "verify", problems_dir / "incomplete_three_lines.json",
                               "--n-max", "4")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert report["checks"]["chain_map"] is True
    assert report["results"]["degree_dims"] == [6, 12, 30, 84, 246]
    assert elapsed < 10, elapsed


def test_verify_chain_map_fails_when_patch_homs_disagree(capsys, tmp_path):
    # the functor commutes (swap . swap = id . id), but phi sends
    # a (x) 1 - 1 (x) a on the word (1, 2) to swap(a) - a, so phi is not
    # well defined on B (x)_A B
    plane = {"dim": 2, "mul": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1]}
    ident = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    doc = {
        "field": "Q",
        "algebra": plane,
        "ideals": {"Z": []},
        "covering": ["Z", "Z"],
        "functor": {"explicit": {
            "n": 2,
            "rings": {"": plane, "1": plane, "2": plane, "1,2": plane},
            "restrictions": {
                "->1": swap, "1->1,2": swap,
                "->2": ident, "2->1,2": ident,
            },
        }},
    }
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "verify", path, "--n-max", "2")
    assert code == 1
    checks = report["checks"]
    assert checks["functor_validation"] is True and checks["chain_map"] is False
    chain = report["results"]["chain_map"]
    assert chain["passed"] is False
    assert [(c["degree"], c["ok"]) for c in chain["well_defined"]] == \
        [(1, True), (2, False), (3, True)]
    assert "(1, 2)" in chain["well_defined"][1]["witness"]
    assert [c["degree"] for c in chain["squares"]] == [1, 2]
    # both squares touch degree 2, where phi depends on the chosen sections
    for square in chain["squares"]:
        assert "phi is not well defined in degree 2" in square["witness"]


@pytest.mark.parametrize("n, overlaps", ((3, [[1], [2], [3]]), (1, [[1]])))
def test_verify_skips_the_chain_map_when_the_patch_counts_differ(capsys, tmp_path, n, overlaps):
    # the split plane covered by its two points has one-dimensional patches,
    # the shape of the cover functor's rings, but the functor has n patches
    doc = {
        "field": "Q",
        "algebra": {"dim": 2, "mul": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1]},
        "ideals": {"I1": [[1, 0]], "I2": [[0, 1]]},
        "covering": ["I1", "I2"],
        "functor": {"cover": {"n": n, "nonempty_overlaps": overlaps}},
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    code, report, err = run_json(capsys, "verify", path)
    assert code == 0, err
    assert report["checks"]["chain_map"] == "skipped"
    assert "chain_map_note" in report["results"]


def test_oracle_circle(capsys, problems_dir):
    code, report, _ = run_json(capsys, "oracle", problems_dir / "circle_cover.json")
    assert code == 0
    assert report["results"]["nerve_cohomology"] == [1, 1]
    assert report["results"]["cech_cohomology"] == [1, 1]
    assert report["checks"]["oracle_match"] is True


def test_oracle_disjoint(capsys, problems_dir):
    code, report, _ = run_json(capsys, "oracle", problems_dir / "disjoint_pair.json")
    assert code == 0
    assert report["results"]["nerve_cohomology"] == [2]


def test_oracle_requires_cover_functor(capsys, problems_dir):
    code, _, err = run(capsys, "oracle", "--input",
                       str(problems_dir / "e1_split_three_points.json"))
    assert code == 2 and "cover" in err


def test_report_determinism(capsys, tmp_path, problems_dir):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = main(["cech", "--input", str(problems_dir / "e1_split_three_points.json"),
                     "--format", "json", "--output", str(out)])
        assert code == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_problem_round_trip(capsys, problems_dir):
    code, report, _ = run_json(capsys, "check", problems_dir / "e1_split_three_points.json")
    assert code == 0
    reparsed = parse_problem(report["problem"])
    original, _ = load_problem(str(problems_dir / "e1_split_three_points.json"))
    assert reparsed.field == original.field
    assert mul_table(reparsed.algebra) == mul_table(original.algebra)
    assert reparsed.algebra.unit == original.algebra.unit
    assert {k: v.space for k, v in reparsed.ideals.items()} == \
        {k: v.space for k, v in original.ideals.items()}
    assert normalize(reparsed) == report["problem"]


def _rescaled(doc: dict, scale: list) -> dict:
    """The same problem on the basis b'_k = scale[k] * b_k: a structure
    constant c_ij^k becomes scale[i] * scale[j] / scale[k] times c_ij^k,
    and the unit and every generator coordinate k is divided by scale[k]."""
    def coords(v):
        return [str(Fraction(x) / s) for x, s in zip(v, scale)]

    alg = doc["algebra"]
    return dict(doc, algebra=dict(alg, unit=coords(alg["unit"]), mul=[
        [i, j, k, str(Fraction(c) * scale[i] * scale[j] / scale[k])]
        for i, j, k, c in alg["mul"]]),
        ideals={name: [coords(v) for v in gens] for name, gens in doc["ideals"].items()})


def test_a_rescaled_basis_gives_the_same_reports(capsys, tmp_path, problems_dir):
    # y -> 2y puts 1/2 into the generators, so the ideal D has RREF basis
    # (0, 1, 1/2) and the differentials hold fractions: the Q kernels run
    # their Fraction branches, which integer coverings never reach
    original = problems_dir / "incomplete_three_lines.json"
    path = tmp_path / "rescaled.json"
    path.write_text(json.dumps(_rescaled(json.loads(original.read_text()), [1, 1, 2])))
    problem, _ = load_problem(str(path))
    assert problem.covering.ideals[2].space.sparse_basis == ({1: 1, 2: Fraction(1, 2)},)
    assert problem.covering.complex.differential(0)._int_rows is None
    for command in ("check", "cech", "amitsur", "verify"):
        want_code, want, _ = run_json(capsys, command, original)
        code, got, _ = run_json(capsys, command, path)
        assert code == want_code
        assert (got["results"], got["checks"]) == (want["results"], want["checks"]), command


def test_field_override(capsys, problems_dir):
    code, report, _ = run_json(capsys, "check", problems_dir / "e1_split_three_points.json",
                               "--field-override", "Fp:5")
    assert code == 0
    assert report["field"] == {"Fp": 5}
    assert report["results"]["covering"]["complete"] is True


def test_bad_field_override(capsys, problems_dir):
    # Fp: takes the problem file's integers, not every spelling int() takes
    for flag in ("F4", "Fp:", "Fp:\u0665", "Fp:1_000_003", "Fp: 5"):
        code, out, err = run(capsys, "check", "--input",
                             str(problems_dir / "e1_split_three_points.json"),
                             "--field-override", flag)
        assert (code, out) == (2, ""), flag
        assert err == 'input error: --field-override: expected "Q" or "Fp:<prime>"\n'


def test_signed_command_line_integers(capsys, problems_dir):
    path = problems_dir / "e1_split_three_points.json"
    code, report, _ = run_json(capsys, "amitsur", path, "--n-max", "+2",
                               "--field-override", "Fp:+5")
    assert code == 0
    assert report["problem"]["options"]["n_max"] == 2
    assert report["field"] == {"Fp": 5}
    code, out, err = run(capsys, "check", "--input", str(path), "--n-max", "-1")
    assert (code, out, err) == (2, "", "input error: --n-max: n_max must be >= 1\n")
    code, out, err = run(capsys, "check", "--input", str(path), "--field-override", "Fp:-1")
    assert (code, out) == (2, "")
    assert err == "input error: --field-override: prime field order out of range: -1\n"


def test_text_format_renders(capsys, problems_dir):
    code, out, _ = run(capsys, "check", "--input",
                       str(problems_dir / "e1_split_three_points.json"))
    assert code == 0
    assert "complete: true" in out
    assert "cechcover" in out


def test_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--input", str(tmp_path / "absent.json"))
    assert code == 2


def test_fractional_scalars_accepted(capsys, tmp_path):
    doc = {
        "field": "Q",
        "algebra": {"dim": 1, "mul": [[0, 0, 0, "2/2"]], "unit": [1]},
        "ideals": {"Z": []},
        "covering": ["Z"],
    }
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run_json(capsys, "check", path)
    assert code == 0
    assert report["results"]["covering"]["complete"] is True


_K2 = {"dim": 2, "mul": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1]}


def _k2_problem(**changes):
    doc = {"field": "Q", "algebra": dict(_K2), "ideals": {"I": [[0, 1]], "J": [[1, 0]]},
           "covering": ["I", "J"]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("command,doc,location", [
    ("check", _k2_problem(algebra=dict(_K2, dim=True)), "algebra.dim"),
    ("check", _k2_problem(algebra=dict(_K2, mul=_K2["mul"] + [[True, 0, 0, 0]])),
     "algebra.mul[2]"),
    ("check", _k2_problem(algebra=dict(_K2, mul=_K2["mul"] + [[1, 0, False, 0]])),
     "algebra.mul[2]"),
    ("check", _k2_problem(options={"n_max": True}), "options.n_max"),
    ("check", _k2_problem(options={"dim_cap": True}), "options.dim_cap"),
    ("check", _k2_problem(field={"Fp": True}), "field"),
    ("cech", {"field": "Q", "functor": {"constant": {"n": True, "ring": _K2}}},
     "functor.constant"),
    ("cech", {"field": "Q", "functor": {"cover": {"n": 2, "nonempty_overlaps": [
        [1], [2], [True, 2]]}}}, "functor.cover.nonempty_overlaps[2]"),
], ids=["dim", "mul-i", "mul-k", "n_max", "dim_cap", "Fp", "functor-n", "cover-overlap"])
def test_booleans_are_not_integers(capsys, tmp_path, command, doc, location):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {location}: ")


def _run_limited(tmp_path, doc, command, *extra, timeout=60):
    """The command on ``doc`` in a process limited to 1 GiB of address space."""
    path = tmp_path / "limited.json"
    path.write_text(json.dumps(doc))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(cechcover.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", "import sys\nfrom cechcover.cli import main\nsys.exit(main())",
         command, "--input", str(path), *extra],
        env=env, preexec_fn=limit_memory, capture_output=True, text=True, timeout=timeout)


def test_huge_dim_is_rejected_before_any_table_is_built(tmp_path):
    """dim is checked against the unit's length first; a table of dim^2 or
    dim^3 entries would exhaust the 1 GiB address space allowed here."""
    doc = _k2_problem(algebra={"dim": 10 ** 9, "mul": [[0, 0, 0, 1]], "unit": [1, 0, 0]})
    proc = _run_limited(tmp_path, doc, "check")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: algebra.unit: ")


def test_a_dim_its_unit_matches_is_capped_before_the_table_is_built(tmp_path):
    """A 40 KB file whose unit has all 20000 entries: the dim x dim grid of
    the structure constants would not fit in the 1 GiB allowed here."""
    dim = 20000
    assert dim * dim > MAX_ALGEBRA_CELLS
    doc = {"field": "Q", "algebra": {"dim": dim, "mul": [[0, 0, 0, 1]],
                                     "unit": [1] + [0] * (dim - 1)}}
    proc = _run_limited(tmp_path, doc, "check")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("resource cap: algebra: dim 20000 ")


@pytest.mark.parametrize("text", ("1.5", "1e3", " 2/3 ", "1_000", "2/-3", "+", "/3", "", "\u0663"),
                         ids=("decimal", "exponent", "spaces", "underscore", "signed-denominator",
                              "sign-only", "no-numerator", "empty", "arabic-indic-digit"))
def test_a_scalar_string_is_an_integer_or_a_fraction(capsys, tmp_path, text):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(_k2_problem(algebra=dict(_K2, unit=[1, text]))))
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error: algebra.unit[1]: ")


def test_an_exponent_in_a_scalar_is_rejected_before_it_is_expanded(tmp_path):
    """``Fraction`` reads "1e999999999" as a power of ten with a billion
    digits, which did not finish in 20 s."""
    doc = _k2_problem(algebra=dict(_K2, unit=["1e999999999", 1]))
    proc = _run_limited(tmp_path, doc, "check", timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error: algebra.unit[0]: ")


# k covered by one patch: every Amitsur degree has one word and one coordinate
_ONE_PATCH = {"field": "Q", "algebra": {"dim": 1, "mul": [[0, 0, 0, 1]], "unit": [1]},
              "ideals": {"Z": []}, "covering": ["Z"]}


@pytest.mark.parametrize("command", ("amitsur", "verify"))
def test_small_degrees_at_a_huge_n_max_are_capped(tmp_path, command):
    """The dim cap never trips here, and the insertions that assemble d
    write cubically many letters in n_max (64.6 s before the budget)."""
    proc = _run_limited(tmp_path, _ONE_PATCH, command, "--n-max", "2000", timeout=5)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("resource cap: Amitsur differentials d_0..d_")


def test_the_word_letter_budget_scales_with_the_dim_cap(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(_ONE_PATCH))
    # each word of degree n has n + 2 insertions, each of length n + 2
    letters = sum((n + 2) ** 2 for n in range(100))
    cap = letters // LETTERS_PER_CAP
    code, out, err = run(capsys, "amitsur", "--input", str(path), "--n-max", "100",
                         "--dim-cap", str(cap))
    assert code == 3 and out == ""
    assert f"write {letters} word letters > {LETTERS_PER_CAP} x cap {cap}" in err
    code, _, _ = run(capsys, "amitsur", "--input", str(path), "--n-max", "100",
                     "--dim-cap", str(cap + 1))
    assert code == 0


def test_invalid_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"field": "\xff"}')
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {path}: invalid JSON: ")


def test_deeply_nested_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert err == f"input error: {path}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("depth", (MAX_NESTING, MAX_NESTING + 1))
def test_nesting_is_bounded_whatever_the_json_parser_accepts(capsys, tmp_path, depth):
    # the bound is checked on the parsed document, so it holds on a Python
    # whose json module parses deeper documents than the bound
    path = tmp_path / "deep.json"
    path.write_text('{"field": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}")
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2 and out == ""
    if depth > MAX_NESTING:
        assert err == f"input error: {path}: invalid JSON: nested too deeply\n"
    else:  # within the bound, the schema refuses the field
        assert err == 'input error: field: field must be "Q" or {"Fp": p}\n'


@pytest.mark.parametrize("size", (0, 1, 55, 56, 63, 64, 65, 100_000))
def test_the_digest_is_sha256(size):
    data = random.Random(size).randbytes(size)
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("spelling", ("separate", "joined"))
@pytest.mark.parametrize("name", ("missing_directory", "empty"))
def test_unwritable_output_is_exit_2(capsys, tmp_path, problems_dir, name, spelling):
    # an empty path names no file: the report must not go to stdout instead
    target = str(tmp_path / "absent" / "r.json") if name == "missing_directory" else ""
    option = ["--output", target] if spelling == "separate" else [f"--output={target}"]
    code, out, err = run(capsys, "check", "--input",
                         str(problems_dir / "e1_split_three_points.json"), *option)
    assert code == 2 and out == ""
    assert err.startswith("output error: ") and repr(target) in err
    assert not os.path.exists(target)


_PLANE = {"dim": 2, "mul": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1]}
_IDENT = [[1, 0], [0, 1]]
_RINGS = {"": _PLANE, "1": _PLANE, "2": _PLANE, "1,2": _PLANE}
_STEPS = {"->1": _IDENT, "->2": _IDENT, "1->1,2": _IDENT, "2->1,2": _IDENT}


def _explicit_doc(rings: dict, restrictions: dict) -> dict:
    return {"field": "Q",
            "functor": {"explicit": {"n": 2, "rings": rings, "restrictions": restrictions}}}


def _respell(keys: dict, old: str, new: str, keep: bool) -> dict:
    """``keys`` with the entry of ``old`` also under ``new``; ``old`` stays only with ``keep``."""
    out = {k: v for k, v in keys.items() if keep or k != old}
    out[new] = keys[old]
    return out


@pytest.mark.parametrize("section,old,new,keep", [
    ("rings", "2", "+2", False),
    ("rings", "2", " 2", False),
    ("rings", "2", "٢", False),  # ARABIC-INDIC DIGIT TWO
    ("rings", "2", "1_0", False),
    ("rings", "1,2", "1, 2", False),
    ("rings", "2", "+2", True),
    ("restrictions", "->2", "->+2", False),
    ("restrictions", "2->1,2", "٢->1,2", False),
    ("restrictions", "->1", "->1_0", False),
    ("restrictions", "1->1,2", "1->1, 2", False),
    ("restrictions", "->2", "-> 2", True),
], ids=["rings-plus", "rings-space", "rings-arabic-indic", "rings-underscore", "rings-comma-space",
        "rings-duplicate", "restrictions-plus", "restrictions-arabic-indic",
        "restrictions-underscore", "restrictions-comma-space", "restrictions-duplicate"])
def test_explicit_functor_keys_must_be_canonical(capsys, tmp_path, section, old, new, keep):
    """Each tuple has one spelling, so two keys never name the same tuple."""
    rings, steps = dict(_RINGS), dict(_STEPS)
    if section == "rings":
        rings = _respell(rings, old, new, keep)
    else:
        steps = _respell(steps, old, new, keep)
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(_explicit_doc(rings, steps)))
    code, out, err = run(capsys, "cech", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: functor.explicit.{section}.")
    assert "is not comma-joined decimal indices" in err


def test_explicit_functor_with_canonical_keys_loads(capsys, tmp_path):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(_explicit_doc(_RINGS, _STEPS)))
    code, report, _ = run_json(capsys, "cech", path)
    assert code == 0
    assert report["checks"]["functor_validation"] is True


@pytest.mark.parametrize("section,key", [("rings", "2"), ("restrictions", "->2")])
def test_a_repeated_json_key_is_an_input_error(capsys, tmp_path, section, key):
    # json.loads alone keeps the last value of a repeated key without a word
    text = json.dumps(_explicit_doc(_RINGS, _STEPS))
    first = f'"{section}": {{'
    text = text.replace(first, f"{first}{json.dumps(key)}: {json.dumps(_PLANE)}, ", 1)
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run(capsys, "cech", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"input error: {path}: invalid JSON: key {key!r} appears twice in one object\n"


# -- the argv contract ----------------------------------------------------------------------

E1 = "e1_split_three_points.json"

ARGV_ERRORS = (
    ((), "missing command"),
    (("bogus", "--input", E1), "unknown command 'bogus'"),
    (("check", "--input", E1, "--bogus", "1"), "unknown option --bogus"),
    (("check", "--inp", E1), "unknown option --inp"),  # no abbreviations
    (("--input", E1, "check"), "unknown option --input"),
    (("check", "--input", E1, "--version"), "unknown option --version"),
    (("check", "--input"), "--input needs a value"),
    (("check", "--input", "--n-max", "2"), "--input needs a value"),
    (("check", "--input", E1, "--n-max", "two"), "--n-max needs an integer"),
    (("check", "--input", E1, "--dim-cap=1.5"), "--dim-cap needs an integer"),
    # the integer grammar of problem files: a sign and ASCII digits, which
    # int() alone widens with underscores, spaces and other scripts' digits
    (("check", "--input", E1, "--n-max", "1_0"), "--n-max needs an integer"),
    (("check", "--input", E1, "--n-max", "\u0663"), "--n-max needs an integer"),
    (("check", "--input", E1, "--n-max", " 3"), "--n-max needs an integer"),
    (("check", "--input", E1, "--dim-cap", "1_0"), "--dim-cap needs an integer"),
    (("check", "--input", E1, "--dim-cap=\u0665"), "--dim-cap needs an integer"),
    (("check", "--input", E1, "--format", "xml"), "--format must be text or json"),
    (("check",), "--input FILE is required"),
    (("check", "--format", "json"), "--input FILE is required"),
    (("check", "--input", E1, "stray"), "unexpected argument 'stray'"),
)


@pytest.mark.parametrize("argv, reason", ARGV_ERRORS, ids=[" ".join(a) for a, _ in ARGV_ERRORS])
def test_argv_errors_exit_2_with_the_usage(capsys, problems_dir, argv, reason):
    argv = [str(problems_dir / a) if a == E1 else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: cechcover ")
    assert f"\ncechcover: error: {reason}" in err


def _report_without_timing(capsys, tmp_path, argv: list) -> dict:
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, *argv, "--output", str(out))
    assert (code, stdout, err) == (0, "", "")
    report = json.loads(out.read_text())
    report.pop("timing")
    return report


def test_equals_form_gives_the_same_report(capsys, tmp_path, problems_dir):
    path = str(problems_dir / E1)
    spaced = _report_without_timing(capsys, tmp_path, [
        "amitsur", "--input", path, "--format", "json", "--n-max", "2",
        "--dim-cap", "50", "--field-override", "Fp:5"])
    joined = _report_without_timing(capsys, tmp_path, [
        "amitsur", "--input=" + path, "--format=json", "--n-max=2",
        "--dim-cap=50", "--field-override=Fp:5"])
    assert joined == spaced
    assert spaced["problem"]["options"]["n_max"] == 2
    assert spaced["field"] == {"Fp": 5}


def test_the_last_occurrence_of_an_option_wins(capsys, tmp_path, problems_dir):
    path = str(problems_dir / E1)
    once = _report_without_timing(capsys, tmp_path,
                                  ["amitsur", "--input", path, "--format", "json", "--n-max", "2"])
    twice = _report_without_timing(capsys, tmp_path, [
        "amitsur", "--input", "missing.json", "--format", "text", "--n-max", "3",
        "--input", path, "--format=json", "--n-max=2"])
    assert twice == once


@pytest.mark.parametrize("argv", (
    ["--help"], ["-h"], ["check", "--help"], ["cech", "--input", E1, "-h"],
    ["verify", "--n-max", "2", "--help", "--bogus"],
))
def test_help_exits_0_and_names_every_command_and_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: cechcover ")
    for word in ("check", "cech", "amitsur", "verify", "oracle", "--input", "--output",
                 "--format", "--n-max", "--dim-cap", "--field-override"):
        assert word in out


def test_version(capsys):
    assert run(capsys, "--version") == (0, "cechcover 0.1.0\n", "")
    assert run(capsys, "--version", "check") == (0, "cechcover 0.1.0\n", "")
