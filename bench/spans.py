"""In-process span recorder for the traced run.

Spans wrap public functions of cechcover at every name a caller looks
them up by (the modules use ``from .x import y``, so a function can be
bound in several module namespaces), and methods on their classes.  The
program itself is not edited.  Each span records its name, start, end,
parent span and case id; spans stay in memory until the run writes them
out.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name)
TARGETS = (
    ("cechcover.problem", "load_problem", "problem.load"),
    ("cechcover.problem", "build_problem_functor", "problem.functor"),
    ("cechcover.algebras", "make_algebra", "algebras.make_algebra"),
    ("cechcover.algebras", "ideal_closure", "algebras.ideal_closure"),
    ("cechcover.algebras", "quotient", "algebras.quotient"),
    ("cechcover.coverings", "Covering.__init__", "coverings.covering_init"),
    ("cechcover.coverings", "completeness_check", "coverings.completeness"),
    ("cechcover.amitsur", "TensorTower.space", "amitsur.tower_space"),
    ("cechcover.amitsur", "TensorTower.insert_unit", "amitsur.insert_unit"),
    ("cechcover.amitsur", "build_amitsur", "amitsur.build"),
    ("cechcover.amitsur", "amitsur_homology", "amitsur.homology"),
    ("cechcover.cech", "build_cech", "cech.build"),
    ("cechcover.cech", "validate_functor", "cech.validate"),
    ("cechcover.cech", "cech_cohomology", "cech.cohomology"),
    ("cechcover.cech", "verify_chain_map", "cech.chain_map"),
    ("cechcover.cech", "phi_raw_matrix", "cech.phi_raw"),
    ("cechcover.nerve", "nerve_cohomology", "nerve.cohomology"),
    ("cechcover.linalg", "rank", "linalg.rank"),
    ("cechcover.linalg", "Matrix.mul", "linalg.mul"),
    ("cechcover.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("cechcover.cli", "main", "cli.main"),
    ("cechcover.cli", "_render_text", "cli.render"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# Per-layer time and count metrics of the traced run; run.py adds the ratios.
TIME_METRICS = tuple(f"{name}_s" for name in SPAN_NAMES)
COUNT_METRICS = (
    "algebras.quotient_calls",
    "amitsur.dim_total", "amitsur.diff_cells", "amitsur.diff_nnz",
    "cech.dim_total", "cech.diff_nnz", "cech.chain_map_raw_dim",
    "linalg.rank_calls", "linalg.rank_cells", "linalg.mul_calls", "linalg.mul_flops",
)


class Tracer:
    """Installs span wrappers into the cechcover modules and removes them."""

    def __init__(self):
        # one entry per span in parallel lists of atoms, which the cyclic
        # garbage collector does not scan
        self.names, self.starts, self.ends, self.parents, self.cases = [], [], [], [], []
        self.stack = []
        self.case = None
        self.counts = defaultdict(int)
        self.ranked = []  # matrices passed to rank in the current case
        self.amitsur = []  # complexes built in the current case
        self.cech = []
        self._undo = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import json as json_module
        mods = {n: m for n, m in sys.modules.items()
                if n == "cechcover" or n.startswith("cechcover.")}
        for modname, attr, span in TARGETS:
            owner = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(span, orig)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
        # the JSON report is rendered by json.dumps inside cli.main
        cli = mods["cechcover.cli"]
        self._set(cli, "json", _JsonProxy(self._wrap("cli.render", json_module.dumps)))

    def uninstall(self) -> None:
        for obj, key, old in reversed(self._undo):
            setattr(obj, key, old)
        self._undo.clear()

    def _set(self, obj, key, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _wrap(self, name, fn):
        names, starts, ends, parents, cases = (self.names, self.starts, self.ends,
                                               self.parents, self.cases)
        stack = self.stack
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            cases.append(self.case)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            try:
                starts[idx] = clock()
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if name == "amitsur.build":
                self.amitsur.append(result)
            elif name == "cech.build":
                self.cech.append(result)
            return result

        return wrapper

    # -- counters (run before the span opens) --------------------------------------

    def _on_algebras_quotient(self, *args, **kwargs):
        self.counts["algebras.quotient_calls"] += 1

    def _on_linalg_rank(self, m):
        self.counts["linalg.rank_calls"] += 1
        self.counts["linalg.rank_cells"] += m.rows * m.cols
        self.ranked.append(m)

    def _on_linalg_mul(self, a, b):
        self.counts["linalg.mul_calls"] += 1
        self.counts["linalg.mul_flops"] += a.rows * a.cols * b.cols

    def _on_cech_phi_raw(self, f, choice, tower, n):
        self.counts["cech.chain_map_raw_dim"] += tower.base.dim ** n

    # -- per case -------------------------------------------------------------------

    def start_case(self, case_id: str) -> int:
        # a timeout in the previous case may have interrupted a wrapper
        # between its appends: drop the partial span
        count = min(map(len, (self.names, self.starts, self.ends, self.parents, self.cases)))
        for column in (self.names, self.starts, self.ends, self.parents, self.cases):
            del column[count:]
        self.stack.clear()
        self.case = case_id
        self.ranked.clear()
        self.amitsur.clear()
        self.cech.clear()
        return len(self.names)

    def end_case(self, first_span: int) -> dict:
        """Self time per span name for the spans recorded since ``first_span``.

        Also folds the sizes of the complexes built in the case into the
        counters; this runs outside every span.
        """
        self.case = None
        count = min(map(len, (self.names, self.starts, self.ends, self.parents,
                              self.cases))) - first_span
        duration = [self.ends[i] - self.starts[i] for i in range(first_span, first_span + count)]
        child_time = [0.0] * count
        for i in range(count):
            parent = self.parents[first_span + i]
            if parent >= first_span:
                child_time[parent - first_span] += duration[i]
        self_time = defaultdict(float)
        for i in range(count):
            self_time[self.names[first_span + i]] += duration[i] - child_time[i]
        self.counts["linalg.rank_distinct"] += len(set(self.ranked))
        for cx in self.amitsur:
            self.counts["amitsur.dim_total"] += sum(cx.degree_dims())
            for d in cx.differentials:
                self.counts["amitsur.diff_cells"] += d.rows * d.cols
                self.counts["amitsur.diff_nnz"] += _nnz(d)
        for cx in self.cech:
            self.counts["cech.dim_total"] += sum(layout.dim for layout in cx.layouts)
            for d in cx.differentials:
                self.counts["cech.diff_nnz"] += _nnz(d)
        self.ranked.clear()
        self.amitsur.clear()
        self.cech.clear()
        return dict(self_time)

    def write(self, path, last_span: int) -> None:
        """Write spans 0..last_span-1 as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(last_span):
                fh.write(json.dumps({"name": self.names[i], "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "case": self.cases[i]}) + "\n")


class _JsonProxy:
    """Stands in for the json module inside cli, with a traced dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def _nnz(m) -> int:
    return sum(1 for row in m.entries for x in row if x)
