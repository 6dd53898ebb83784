"""Traced runs: timing wrappers on the public functions of each ngoneq module.

Each wrapper is installed at every module or class attribute through which
callers look the function up, so calls made inside the package are recorded
too. A span is ``[name, start, end, parent, op_id]``; spans stay in memory
until the run ends. The counters a layer's metrics need are taken from the
wrapped call's arguments and result, after its span has closed, inside a
``trace.count`` span of their own so that the bookkeeping shows as tracing
cost and not as time in the layer.

A target that no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from math import comb

# ---- counters taken from a finished call ---------------------------------


def _count_moves(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["simplicial.moves"] += sum(len(seq.moves) for seq in result)


def _count_factor(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["pmatrix.factor_nonzeros"] += sum(1 for row in result.entries for x in row if x)
    tracer.counts["pmatrix.factor_entries"] += result.rows * result.cols


def _count_mul(tracer: "Tracer", args: tuple, result) -> None:
    left, right = args[0], args[1]
    col_nonzeros = [0] * left.cols
    for row in left.entries:
        for k, x in enumerate(row):
            if x:
                col_nonzeros[k] += 1
    row_nonzeros = [sum(1 for x in row if x) for row in right.entries]
    tracer.counts["exactfield.mul_madds"] += left.rows * left.cols * right.cols
    tracer.counts["exactfield.mul_useful"] += sum(
        c * r for c, r in zip(col_nonzeros, row_nonzeros)
    )
    bits = max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for row in result.entries for x in row),
        default=0,
    )
    tracer.maxima["exactfield.max_entry_bits"] = max(
        tracer.maxima["exactfield.max_entry_bits"], bits
    )


def _count_f_vector(tracer: "Tracer", args: tuple, result) -> None:
    n, pair, zeta = args[0], args[1], args[2]
    tracer.counts["fvectors.subset_terms"] += comb(n - 3, n // 2)
    key = (n, pair, zeta)
    if key in tracer.seen_f_vectors:
        tracer.counts["fvectors.redundant"] += 1
    else:
        tracer.seen_f_vectors.add(key)


def _eq_name(tracer: "Tracer") -> str:
    """Matrix equality is the comparison step only when verify_equation calls it."""
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is not None and tracer.spans[parent][0] == "verifier.verify_equation":
        return "verifier.compare"
    return "exactfield.eq"


# (module, attribute path, span name or naming function, counter hook)
TARGETS = (
    ("ngoneq.simplicial", "equation_sequences", "simplicial.equation_sequences", _count_moves),
    ("ngoneq.simplicial", "triangulation_path", "simplicial.triangulation_path", None),
    ("ngoneq.pmatrix", "build_p_matrix", "pmatrix.build_p_matrix", None),
    ("ngoneq.pmatrix", "extend_matrix", "pmatrix.extend_matrix", _count_factor),
    ("ngoneq.exactfield", "DenseMatrix.mul", "exactfield.mul", _count_mul),
    ("ngoneq.exactfield", "DenseMatrix.rank", "exactfield.rank", None),
    ("ngoneq.exactfield", "DenseMatrix.__eq__", _eq_name, None),
    ("ngoneq.verifier", "_first_difference", "verifier.compare", None),
    ("ngoneq.fvectors", "f_vector", "fvectors.f_vector", _count_f_vector),
    ("ngoneq.fvectors", "check_orthogonality", "fvectors.check_orthogonality", None),
    ("ngoneq.fvectors", "check_move_action", "fvectors.check_move_action", None),
    ("ngoneq.verifier", "verify_equation", "verifier.verify_equation", None),
    ("ngoneq.verifier", "run_property_suite", "verifier.run_property_suite", None),
    ("ngoneq.cli", "main", "cli.main", None),
)

# Time metric -> span names it covers. A span nested inside another span of
# the same group is not counted twice.
TIME_GROUPS = {
    "simplicial.sequences_s": ("simplicial.equation_sequences", "simplicial.triangulation_path"),
    "pmatrix.build_s": ("pmatrix.build_p_matrix", "pmatrix.extend_matrix"),
    "exactfield.mul_s": ("exactfield.mul",),
    "exactfield.rank_s": ("exactfield.rank",),
    "fvectors.f_vector_s": ("fvectors.f_vector",),
    "fvectors.orth_s": ("fvectors.check_orthogonality",),
    "fvectors.move_action_s": ("fvectors.check_move_action",),
    "verifier.verify_s": ("verifier.verify_equation",),
    "verifier.suite_s": ("verifier.run_property_suite",),
    "verifier.compare_s": ("verifier.compare",),
    "cli.main_s": ("cli.main",),
}

# Self time is reported per module: the span name up to its first dot.
# "bench" is the benchmark's own call around each operation; "trace" is
# counter bookkeeping.
SELF_MODULES = (
    "bench", "simplicial", "pmatrix", "exactfield", "fvectors", "verifier", "cli", "trace",
)


UNITS = {
    "simplicial.moves": "count",
    "pmatrix.factors": "count",
    "pmatrix.factor_fill": "share",
    "exactfield.mul_madds": "count",
    "exactfield.mul_useful_share": "share",
    "exactfield.max_entry_bits": "bits",
    "exactfield.rank_calls": "count",
    "fvectors.f_vector_calls": "count",
    "fvectors.subset_terms": "count",
    "fvectors.redundant_share": "share",
    "cli.out_bytes": "bytes",
    "trace.spans": "count",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric: seconds unless listed in UNITS."""
    return UNITS.get(metric, "s")


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, int] = defaultdict(int)
        self.seen_f_vectors: set = set()
        self.op_id = -1
        self._installed: list[tuple[object, str, object]] = []

    # ---- spans --------------------------------------------------------

    def open(self, name: str, start: float) -> int:
        index = len(self.spans)
        self.spans.append([name, start, start, self.stack[-1] if self.stack else None, self.op_id])
        self.stack.append(index)
        return index

    def close(self, index: int, end: float) -> None:
        self.spans[index][2] = end
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def begin_op(self, op_id: int, start: float) -> int:
        """Open the root span of one operation at the operation's own start time."""
        self.op_id = op_id
        self.seen_f_vectors.clear()
        return self.open("bench.op", start)

    # ---- wrappers -----------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name(tracer) if callable(name) else name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.close(index, end)
            if hook is not None:
                count_index = tracer.open("trace.count", end)
                hook(tracer, args, result)
                tracer.close(count_index, time.perf_counter())
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at each attribute that refers to it."""
        modules = [
            m for m in list(sys.modules.values())
            if getattr(m, "__name__", "").split(".")[0] == "ngoneq"
        ]
        for module_name, path, name, hook in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, name, hook)
            if owner_path:
                places = [(owner, key) for key, value in vars(owner).items() if value is original]
            else:
                places = [(m, attr) for m in modules if getattr(m, attr, None) is original]
            for obj, key in places:
                setattr(obj, key, wrapper)
                self._installed.append((obj, key, original))

    def uninstall(self) -> None:
        while self._installed:
            obj, key, original = self._installed.pop()
            setattr(obj, key, original)

    # ---- results ------------------------------------------------------

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass (shares and maxima are not divided)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start

        self_time = dict.fromkeys(SELF_MODULES, 0.0)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            module = name.split(".")[0]
            self_time[module] = self_time.get(module, 0.0) + (end - start) - child_time[i]
            calls[name] += 1

        group_of = {n: g for g, names in TIME_GROUPS.items() for n in names}
        group_time = dict.fromkeys(TIME_GROUPS, 0.0)
        for name, start, end, parent, _ in spans:
            group = group_of.get(name)
            if group is None:
                continue
            while parent is not None and group_of.get(spans[parent][0]) != group:
                parent = spans[parent][3]
            if parent is None:
                group_time[group] += end - start

        c = self.counts
        f_calls = calls["fvectors.f_vector"]
        metrics = {k: v / passes for k, v in group_time.items()}
        metrics.update({
            "simplicial.moves": c["simplicial.moves"] / passes,
            "pmatrix.factors": calls["pmatrix.extend_matrix"] / passes,
            "pmatrix.factor_fill": _share(c["pmatrix.factor_nonzeros"], c["pmatrix.factor_entries"]),
            "exactfield.mul_madds": c["exactfield.mul_madds"] / passes,
            "exactfield.mul_useful_share": _share(c["exactfield.mul_useful"], c["exactfield.mul_madds"]),
            "exactfield.max_entry_bits": self.maxima["exactfield.max_entry_bits"],
            "exactfield.rank_calls": calls["exactfield.rank"] / passes,
            "fvectors.f_vector_calls": f_calls / passes,
            "fvectors.subset_terms": c["fvectors.subset_terms"] / passes,
            "fvectors.redundant_share": _share(c["fvectors.redundant"], f_calls),
            "cli.out_bytes": c["cli.out_bytes"] / passes,
        })
        for module in SELF_MODULES:
            metrics[f"self.{module}_s"] = self_time[module] / passes
        metrics["trace.spans"] = len(spans) / passes
        return metrics


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
