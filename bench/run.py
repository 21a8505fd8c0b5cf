#!/usr/bin/env python3
"""Benchmark of the cechcover command line, stdlib only.

    python3 bench/run.py --workload amitsur-tower --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the program is taken from
``src/``.  The benchmark writes its problem files from ``--seed``
(``gen.py``), runs each case as its own ``cechcover`` process, one after
another from a single client (a closed loop, no threads), and checks every
report against answers derived without the code under test
(``expected.py``).  It repeats the case list until ``--seconds`` have
passed and reports, per case, the median over the passes of its wall time
scaled to a reference machine speed (see ``calibrate``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
cases in process through ``cechcover.cli.main`` with span wrappers
installed (``spans.py``) and prints the per-layer metrics instead,
including the tracing overhead against one untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero if a timed case fails or a probe gives a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import cases as cs  # noqa: E402
import expected as ex  # noqa: E402

CASE_LIMIT_S = 30.0  # a timed case that takes longer counts as failed
RUN_BUDGET_S = 165.0  # no case starts after this; a run must end within 180 s
SETUP_REPEATS = 7
# Median calibration time on the machine the baseline was measured on; times
# are reported in seconds at that speed (see ``calibrate``).
REF_CALIB_S = 0.025
CALIB_WINDOW = 5  # calibration points on each side of a case that set its scale
# what the installed ``cechcover`` console script runs
LAUNCH = "import sys\nfrom cechcover.cli import main\nsys.exit(main())"

END_TO_END = (
    ("batch_s", "s"), ("batch_q_s", "s"), ("batch_fp_s", "s"), ("max_case_s", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("fail_share", "ratio"),
)


class CaseTimeout(BaseException):
    """Raised by the alarm in an in-process case; not caught by the program."""


# -- running one case -------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed exact elimination, over Q and over F_p.

    The speed of a shared machine drifts by 20-40 % over seconds to
    minutes.  A calibration point (three calibrations) follows every
    process the run starts, and a wall time is scaled by REF_CALIB_S over
    the median calibration of the points around it (``Run.scaled``): the
    drift cancels, a change to cechcover does not (this code does not
    import it).
    """
    start = time.perf_counter()
    n, p = 18, 1000003
    q_rows = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(n)]
              for i in range(n)]
    p_rows = [[((i * 7 + j * 13) % 11 - 5) % p for j in range(n)] for i in range(n)]
    for rows, sub, div in ((q_rows, lambda x, f, y: x - f * y, lambda a, b: a / b),
                           (p_rows, lambda x, f, y: (x - f * y) % p,
                            lambda a, b: a * pow(b, p - 2, p) % p)):
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(n):
                if i != r and rows[i][c]:
                    f = div(rows[i][c], rows[r][c])
                    rows[i] = [sub(x, f, y) for x, y in zip(rows[i], rows[r])]
            r += 1
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list, out_path: Path, limit: float, env: dict):
    """Run one cechcover process; returns (seconds, exit code or None on timeout, maxrss KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out_path) + ".stdout", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(out_path) + ".stderr", flags, 0o644)]
    argv = [sys.executable, "-c", LAUNCH, *args]
    timed_out = False
    pid = None

    def on_alarm(signum, frame):
        nonlocal timed_out
        timed_out = True
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    old = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
        _, status, usage = os.wait4(pid, 0)
        pid = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        if pid is not None:  # interrupted: do not leave the child behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    elapsed = time.perf_counter() - start
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return elapsed, code, usage.ru_maxrss


def judge(case: cs.Case, code, out_path: Path, stderr: str):
    """(ok, reason).  A probe may also stop early with exit 3 (resource cap)."""
    if code is None:
        return False, "timeout"
    if "Traceback" in stderr:
        return False, "traceback"
    if case.probe and code == 3:
        return True, "exit 3"
    if code != 0:
        return False, f"exit {code}"
    try:
        report = json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False, "no report"
    bad = ex.mismatches(report, case.expected)
    return (not bad), ("wrong " + ",".join(bad) if bad else "ok")


def read_stderr(out_path: Path) -> str:
    try:
        return Path(str(out_path) + ".stderr").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


class Run:
    """One benchmark run of one workload: inputs, deadline and outcomes."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seconds = seconds
        self.started = time.perf_counter()
        self.workdir = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.timed, self.probes, self.paths = cs.build(workload, seed, self.workdir, CASE_LIMIT_S)
        self.env = child_env()
        self.calibs = [[calibrate() for _ in range(3)]]  # calibration points
        self.failures = {}  # case id -> reason
        self.wrong = []  # cases that answered wrongly or crashed (not timeouts)
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def output_path(self, case: cs.Case) -> Path:
        return self.workdir / (case.id.replace(":", "_").replace("/", "_") + ".report.json")

    def spawn_logged(self, args: list, out: Path, limit: float):
        """spawn() followed by a calibration point; returns ((seconds, point), code, rss)."""
        point = len(self.calibs) - 1
        seconds, code, rss = spawn(args, out, limit, self.env)
        self.calibs.append([calibrate() for _ in range(3)])
        return (seconds, point), code, rss

    def scaled(self, sample) -> float:
        """Wall time at the reference speed: scaled by REF_CALIB_S over the median
        calibration of the CALIB_WINDOW points before and after the process."""
        seconds, point = sample
        window = self.calibs[max(0, point - CALIB_WINDOW + 1):point + CALIB_WINDOW + 1]
        return seconds * REF_CALIB_S / statistics.median(x for p in window for x in p)

    def run_case(self, case: cs.Case):
        """Run a case as a process; returns ((seconds, calibration point), maxrss KiB, ok)."""
        out = self.output_path(case)
        out.unlink(missing_ok=True)
        limit = min(case.limit_s, self.remaining())
        if limit <= 0:
            sample, code, rss = (0.0, len(self.calibs) - 1), None, 0
        else:
            sample, code, rss = self.spawn_logged(
                case.argv(self.paths[case.problem], out), out, limit)
        ok, reason = judge(case, code, out, read_stderr(out))
        self.record(case, ok, reason)
        return sample, rss, ok

    def record(self, case: cs.Case, ok: bool, reason: str) -> None:
        if not case.probe:
            self.attempted += 1
            self.failed += 0 if ok else 1
        if not ok:
            self.failures.setdefault(case.id, reason)
            if reason != "timeout":
                self.wrong.append(case.id)

    def setup_samples(self) -> list:
        """Samples of ``cechcover --version`` after one warm-up."""
        out = self.workdir / "version"
        samples = []
        for _ in range(SETUP_REPEATS + 1):
            sample, code, _ = self.spawn_logged(["--version"], out,
                                                min(CASE_LIMIT_S, self.remaining()))
            if code != 0:
                raise RuntimeError(f"cechcover --version exited with {code}: "
                                   + read_stderr(out).strip())
            samples.append(sample)
        return samples[1:]

    def fail_share(self) -> float:
        return len(self.failures) / (len(self.timed) + len(self.probes))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


# -- untraced run: end-to-end metrics -----------------------------------------------------


def measure(run: Run) -> dict:
    setup = run.setup_samples()
    samples = {c.id: [] for c in run.timed}
    peak_rss = 0
    passes = 0
    window = time.perf_counter()
    while True:
        for case in run.timed:
            sample, rss, _ = run.run_case(case)
            samples[case.id].append(sample)
            peak_rss = max(peak_rss, rss)
        passes += 1
        if time.perf_counter() - window >= run.seconds or run.remaining() <= 0:
            break
    for probe in run.probes:
        run.run_case(probe)
    med = {cid: statistics.median(map(run.scaled, ss)) for cid, ss in samples.items()}
    raw = {cid: statistics.median(s for s, _ in ss) for cid, ss in samples.items()}
    q = sum(med[c.id] for c in run.timed if c.is_q)
    fp = sum(med[c.id] for c in run.timed if not c.is_q)
    print(f"# {run.workload}: {passes} passes of {len(run.timed)} cases, "
          f"{len(run.probes)} probe(s)")
    for case in run.timed:
        print(f"#   {case.id:34s} median {med[case.id]:8.4f} s "
              f"(unscaled {raw[case.id]:8.4f} s)")
    return {
        "batch_s": q + fp,
        "batch_q_s": q,
        "batch_fp_s": fp,
        "max_case_s": max(med.values()),
        "setup_s": statistics.median(map(run.scaled, setup)),
        "peak_rss_mb": peak_rss / 1024.0,
        "fail_share": run.fail_share(),
    }


# -- traced run: per-layer metrics ----------------------------------------------------------


def run_in_process(main, args: list, limit: float):
    def on_alarm(signum, frame):
        raise CaseTimeout()

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
    try:
        return main(args), ""
    except CaseTimeout:
        return None, ""
    except SystemExit as exc:
        return exc.code, ""
    except Exception as exc:  # the case fails; the run goes on
        return 1, f"Traceback: {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def measure_traced(run: Run, seed: int) -> dict:
    import spans as tr

    sys.path.insert(0, str(SRC))
    import cechcover
    import cechcover.cli

    if Path(cechcover.__file__).resolve().parent != (SRC / "cechcover").resolve():
        raise RuntimeError(f"imported cechcover from {cechcover.__file__}, not {SRC}")

    setup = statistics.median(s for s, _ in run.setup_samples())
    untraced = sum(run.run_case(case)[0][0] for case in run.timed)
    untraced_work = untraced - setup * len(run.timed)

    tracer = tr.Tracer()
    tracer.install()
    passes = []
    first_pass_end = None
    window = time.perf_counter()
    try:
        while True:
            tracer.counts.clear()
            self_time = dict.fromkeys(tr.SPAN_NAMES, 0.0)
            case_sum = 0.0
            for case in run.timed:
                out = run.output_path(case)
                out.unlink(missing_ok=True)
                first = tracer.start_case(case.id)
                t0 = time.perf_counter()
                code, err = run_in_process(cechcover.cli.main,
                                           case.argv(run.paths[case.problem], out),
                                           min(case.limit_s, run.remaining()))
                wall = time.perf_counter() - t0
                selfs = tracer.end_case(first)
                ok, reason = judge(case, code, out, err)
                if sum(selfs.values()) > wall + 1e-9:
                    ok, reason = False, "self times exceed the case wall time"
                run.record(case, ok, reason)
                case_sum += wall
                for name, value in selfs.items():
                    self_time[name] += value
            passes.append((self_time, case_sum, dict(tracer.counts)))
            if first_pass_end is None:
                first_pass_end = len(tracer.names)
            if time.perf_counter() - window >= run.seconds or run.remaining() <= 0:
                break
    finally:
        tracer.uninstall()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{run.workload}-{seed}.jsonl", first_pass_end)

    counts = passes[0][2]
    metrics = {}
    for name in tr.SPAN_NAMES:
        metrics[f"{name}_s"] = statistics.median(p[0][name] for p in passes)
    for name in tr.COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    calls = counts.get("linalg.rank_calls", 0)
    metrics["linalg.rank_useful_ratio"] = (counts.get("linalg.rank_distinct", 0) / calls
                                           if calls else 0.0)
    case_s = statistics.median(p[1] for p in passes)
    metrics["trace.case_s"] = case_s
    metrics["trace.untraced_s"] = untraced_work
    metrics["trace.overhead_ratio"] = case_s / untraced_work if untraced_work > 0 else 0.0
    print(f"# {run.workload}: {len(passes)} traced passes of {len(run.timed)} cases")
    return metrics


def per_layer_units() -> dict:
    import spans as tr

    units = {name: "s" for name in tr.TIME_METRICS}
    units.update({name: "count" for name in tr.COUNT_METRICS})
    units["linalg.rank_useful_ratio"] = "ratio"
    units.update({"trace.case_s": "s", "trace.untraced_s": "s", "trace.overhead_ratio": "ratio"})
    return units


# -- entry point --------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    try:
        if trace:
            values = measure_traced(run, seed)
            units = per_layer_units()
        else:
            values = measure(run)
            units = dict(END_TO_END)
    finally:
        run.close()
    for cid, reason in run.failures.items():
        probe = any(p.id == cid for p in run.probes)
        print(f"# {'probe' if probe else 'FAILED'} {cid}: {reason}")
    for name, value in values.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    return {
        "correct": run.failed == 0 and not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cechcover" / "cli.py").is_file():
        print(f"error: no cechcover sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = sorted(cs.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
