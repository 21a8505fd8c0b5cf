"""Command-line front end.

Subcommands: check | cech | amitsur | verify | oracle.  One self-contained
problem file per invocation; reports are emitted as JSON (machine) or an
aligned text rendering of the same data.

The command line is read by ``_parse_argv``: the usage text ``HELP`` and
the table ``OPTIONS`` of the six options are all of it.  An option is
given as ``--opt value`` or ``--opt=value``; the last occurrence wins.
Option names are matched exactly (no abbreviations).  ``-h``/``--help``
before or after the command prints the usage, ``--version`` before the
command prints the version; both exit 0.

Exit codes: 0 success, 1 property violation found, 2 input error, usage
error or an unwritable output path, 3 resource cap exceeded.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Optional

# modules rather than names from them: each module is compiled when a command
# first reads it (cechcover/__init__.py), so --version compiles none of them
from . import __version__, amitsur, cech, coverings, nerve, problem as problem_file
from .errors import (
    CechcoverError, DimensionCapError, NotAComplexError, ProblemFormatError, StructureError,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3

USAGE = """\
usage: cechcover [-h] [--version] COMMAND --input FILE [--output FILE]
                 [--format text|json] [--n-max N] [--dim-cap N]
                 [--field-override Q|Fp:<prime>]
"""

HELP = USAGE + """
Exact Cech cohomology of algebra coverings

commands:
  check     covering and completeness report
  cech      Cech cohomology of the problem's functor
  amitsur   Amitsur complex dimensions and homology
  verify    run every structural check and report pass/fail
  oracle    compare Cech dimensions against the nerve oracle

options:
  --input FILE              problem file (JSON), required
  --output FILE             write the report here instead of stdout
  --format text|json        report format (default text)
  --n-max N                 override options.n_max
  --dim-cap N               override options.dim_cap
  --field-override FIELD    compute over this field instead ("Q" or "Fp:5")
  -h, --help                print this message and exit
  --version                 print the version and exit

exit codes: 0 ok, 1 property violation, 2 input or usage error,
3 resource cap
"""

COMMANDS = ("check", "cech", "amitsur", "verify", "oracle")


class UsageError(Exception):
    """A command line that does not parse; ``main`` exits 2 with the usage."""


def _text(name: str, value: str) -> str:
    return value


def _int(name: str, value: str) -> int:
    if not problem_file.is_integer_text(value):
        raise UsageError(f"{name} needs an integer, not {value!r}")
    return int(value)


def _format(name: str, value: str) -> str:
    if value not in ("text", "json"):
        raise UsageError(f"{name} must be text or json, not {value!r}")
    return value


# option -> the converter of its value
OPTIONS = {
    "--input": _text,
    "--output": _text,
    "--format": _format,
    "--n-max": _int,
    "--dim-cap": _int,
    "--field-override": _text,
}


def _parse_argv(argv: list) -> tuple:
    """(command, {option: value}) from the arguments after the program
    name; the command is ``--help`` or ``--version`` when one of them
    was asked for.  Raises UsageError."""
    command = None
    opts: dict = {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return "--help", {}
        if command is None:
            if arg == "--version":
                return "--version", {}
            if arg.startswith("-"):
                raise UsageError(f"unknown option {arg}")
            if arg not in COMMANDS:
                raise UsageError(f"unknown command {arg!r} (choose from {', '.join(COMMANDS)})")
            command = arg
            continue
        if not arg.startswith("-"):
            raise UsageError(f"unexpected argument {arg!r}")
        name, eq, value = arg.partition("=")
        convert = OPTIONS.get(name)
        if convert is None:
            raise UsageError(f"unknown option {name}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{name} needs a value")
        opts[name] = convert(name, value)
    if command is None:
        raise UsageError(f"missing command (one of {', '.join(COMMANDS)})")
    if "--input" not in opts:
        raise UsageError("--input FILE is required")
    return command, opts


def main(argv: Optional[list] = None) -> int:
    try:
        command, opts = _parse_argv(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"{USAGE}cechcover: error: {exc}\n")
        return EXIT_INPUT
    if command == "--help":
        sys.stdout.write(HELP)
        return EXIT_OK
    if command == "--version":
        sys.stdout.write(f"cechcover {__version__}\n")
        return EXIT_OK
    path = opts["--input"]
    n_max = opts.get("--n-max")
    dim_cap = opts.get("--dim-cap")
    output = opts.get("--output")

    try:
        override = _parse_field_flag(opts.get("--field-override"))
        problem, digest = problem_file.load_problem(path, field_override=override)
        if n_max is not None:
            if n_max < 1:
                raise ProblemFormatError("n_max must be >= 1", "--n-max")
            problem = problem._replace(n_max=n_max)
        if dim_cap is not None:
            if dim_cap < 1:
                raise ProblemFormatError("dim_cap must be positive", "--dim-cap")
            problem = problem._replace(dim_cap=dim_cap)
        # loading raises only the first two: it wraps the rest into ProblemFormatError
        started = time.perf_counter()
        results, checks, code = _dispatch(command, problem)
    except ProblemFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DimensionCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (NotAComplexError, StructureError) as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    elapsed = time.perf_counter() - started

    report = {
        "tool": "cechcover",
        "version": __version__,
        "command": command,
        "input": {"path": path, "sha256": digest},
        "field": problem_file.field_spec_to_json(problem.field),
        "problem": problem_file.normalize(problem),
        "results": results,
        "checks": checks,
        "timing": {"seconds": round(elapsed, 6)},
    }
    rendered = (json.dumps(report, indent=2, sort_keys=True) + "\n"
                if opts.get("--format") == "json" else _render_text(report))
    if output is not None:  # an empty path cannot be written: an output error
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(rendered)
    return code


def _parse_field_flag(flag: Optional[str]):
    if flag is None:
        return None
    if flag == "Q":
        return problem_file.parse_field_spec("Q", "--field-override")
    if flag.startswith("Fp:") and problem_file.is_integer_text(flag[3:]):
        return problem_file.parse_field_spec({"Fp": int(flag[3:])}, "--field-override")
    raise ProblemFormatError('expected "Q" or "Fp:<prime>"', "--field-override")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _need_covering(problem: problem_file.Problem):
    if problem.covering is None:
        raise ProblemFormatError("this command needs algebra, ideals and covering sections",
                                 "covering")
    return problem.covering


def _dispatch(command: str, problem: problem_file.Problem):
    if command == "check":
        return _cmd_check(problem)
    if command == "cech":
        return _cmd_cech(problem)
    if command == "amitsur":
        return _cmd_amitsur(problem)
    if command == "verify":
        return _cmd_verify(problem)
    return _cmd_oracle(problem)


def _cmd_check(problem: problem_file.Problem):
    c = _need_covering(problem)
    report = coverings.completeness_check(c)
    results = {
        "covering": report.as_dict(),
        "patch_dims": list(c.patch_dims()),
        "pair_dims": list(c.pair_dims()),
        "tau_rank": c.complex.rank(1),
    }
    return results, {}, EXIT_OK


def _functor_summary(cx) -> dict:
    """The ring dimension on each index tuple; the cochain spaces hold the nonzero ones."""
    held = {zeta: d for space in cx.spaces for zeta, d in zip(space.words, space.dims)}
    return {problem_file.tuple_to_key(zeta): held.get(zeta, 0)
            for n in range(cx.n_patches + 1) for zeta in cech.all_tuples(cx.n_patches, n)}


def _cmd_cech(problem: problem_file.Problem):
    try:
        functor, kind, _ = problem_file.build_problem_functor(problem)
        cx = cech.build_cech(functor)
    except StructureError as exc:
        return ({"error": str(exc), "witness": repr(exc.witness)},
                {"functor_validation": False}, EXIT_VIOLATION)
    results = {
        "functor": kind,
        "ring_dims": _functor_summary(cx),
        "cech_cohomology": cech.cech_cohomology(cx),
    }
    checks = {"functor_validation": True, "dprime_squared_zero": True}
    return results, checks, EXIT_OK


def _cmd_amitsur(problem: problem_file.Problem):
    c = _need_covering(problem)
    cx = amitsur.build_amitsur(c, problem.n_max, cap=problem.dim_cap)
    results = {
        "covering": coverings.completeness_check(c).as_dict(),
        "degree_dims": list(cx.degree_dims()),
        "homology_augmented": amitsur.amitsur_homology(cx, augmented=True),
        "homology_unaugmented": amitsur.amitsur_homology(cx, augmented=False),
    }
    checks = {"d_squared_zero": True, "augmentation_chain": True}
    return results, checks, EXIT_OK


def _cmd_verify(problem: problem_file.Problem):
    c = _need_covering(problem)
    checks: dict = {}
    results: dict = {}
    ok = True

    report = coverings.completeness_check(c)
    results["covering"] = report.as_dict()

    cx = None
    try:
        cx = amitsur.build_amitsur(c, problem.n_max, cap=problem.dim_cap)
        checks["d_squared_zero"] = True
        results["degree_dims"] = list(cx.degree_dims())
        results["homology_augmented"] = amitsur.amitsur_homology(cx, augmented=True)
    except NotAComplexError as exc:
        checks["d_squared_zero"] = False
        results["d_squared_witness"] = str(exc)
        ok = False

    ccx = None
    try:
        functor, kind, _ = problem_file.build_problem_functor(problem)
        ccx = cech.build_cech(functor)
    except StructureError as exc:
        checks["functor_validation"] = False
        results["functor_witness"] = f"{exc} [{exc.witness!r}]"
        ok = False
    else:
        # functor validation has established d'.d' = 0
        checks["functor_validation"] = True
        results["functor"] = kind
        checks["dprime_squared_zero"] = True
        results["cech_cohomology"] = cech.cech_cohomology(ccx)

    if ccx is not None and cx is not None:
        try:
            maps = cech.patch_maps(functor, c)
        except CechcoverError:
            maps = None
            checks["chain_map"] = "skipped"
            results["chain_map_note"] = ("no canonical patch homs A_i -> R((i,)); "
                                         "chain-map check needs the default ringed functor")
        if maps is not None:
            cm = cech.verify_chain_map(cx, ccx, maps)
            checks["chain_map"] = cm.passed
            results["chain_map"] = cm.as_dict()
            ok = ok and cm.passed

    return results, checks, EXIT_OK if ok else EXIT_VIOLATION


def _cmd_oracle(problem: problem_file.Problem):
    if problem.functor_spec is None or problem.functor_spec["kind"] != "cover":
        raise ProblemFormatError('oracle needs a {"cover": ...} functor section', "functor")
    functor, kind, cd = problem_file.build_problem_functor(problem)
    nerve_dims = nerve.nerve_cohomology(cd)
    cech_dims = cech.cech_cohomology(cech.build_cech(functor))
    match = nerve_dims == cech_dims
    results = {
        "functor": kind,
        "nerve_cohomology": nerve_dims,
        "cech_cohomology": cech_dims,
    }
    checks = {"oracle_match": match}
    return results, checks, EXIT_OK if match else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _render_text(report: dict) -> str:
    lines = [f"cechcover {report['version']} - {report['command']}"]
    lines.append(f"input: {report['input']['path']} (sha256 {report['input']['sha256'][:12]}...)")
    lines.append(f"field: {json.dumps(report['field'])}")
    lines.append("")
    lines.append("results:")
    lines.extend(_render_block(report["results"], indent=2))
    if report["checks"]:
        lines.append("checks:")
        for key in sorted(report["checks"]):
            lines.append(f"  {key}: {report['checks'][key]}")
    lines.append(f"timing: {report['timing']['seconds']} s")
    return "\n".join(lines) + "\n"


def _render_block(value, indent: int) -> list:
    pad = " " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub and not _is_flat(sub):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_block(sub, indent + 2))
            else:
                lines.append(f"{pad}{key}: {json.dumps(sub)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_render_block(item, indent))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    return False


if __name__ == "__main__":
    sys.exit(main())
